#include "reram/periphery.hpp"

#include <stdexcept>

namespace aimsc::reram {

Periphery::Periphery(CrossbarArray& array)
    : array_(array), l0_(array.cols()), l1_(array.cols()) {}

void Periphery::captureL0(const sc::Bitstream& v) {
  if (v.size() != array_.cols()) {
    throw std::invalid_argument("Periphery::captureL0: width mismatch");
  }
  l0_ = v;
}

void Periphery::commit(std::size_t r) { array_.writeRow(r, l0_); }

}  // namespace aimsc::reram
