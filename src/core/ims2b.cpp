#include "core/ims2b.hpp"

#include <algorithm>
#include <cmath>

namespace aimsc::core {

ImS2B::ImS2B(reram::CrossbarArray& array) : array_(array) {}

std::uint32_t ImS2B::convert(const sc::Bitstream& stream) {
  array_.events().add(reram::EventKind::AdcConversion);
  const std::size_t n = stream.size();
  if (codeTable_.size() != n + 1) {
    // An empty stream throws from the ADC and leaves the table empty.
    codeTable_.clear();
    for (std::size_t pc = 0; pc <= n; ++pc) {
      codeTable_.push_back(adc_.convert(pc, n));
    }
  }
  return codeTable_[stream.popcount()];
}

std::uint32_t ImS2B::convertStored(const sc::Bitstream& stream) {
  // The stream is programmed into a column of cells first (one bulk write
  // of stream.size() cells), then sensed.
  auto& log = array_.events();
  log.add(reram::EventKind::RowWrite);
  log.add(reram::EventKind::CellWrite, stream.popcount());
  log.add(reram::EventKind::AdcConversion);
  return adc_.convert(stream.popcount(), stream.size());
}

double ImS2B::toProbability(std::uint32_t code) const {
  return static_cast<double>(code) / static_cast<double>(adc_.maxCode());
}

std::uint8_t ImS2B::toPixel(std::uint32_t code) const {
  const double p = toProbability(code);
  return static_cast<std::uint8_t>(std::lround(std::clamp(p, 0.0, 1.0) * 255.0));
}

}  // namespace aimsc::core
