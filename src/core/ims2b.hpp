/// \file ims2b.hpp
/// \brief In-memory stochastic-to-binary conversion (paper Sec. III-C).
///
/// The output stream is applied as read voltages to a reference column of
/// LRS-programmed cells; the accumulated bitline current is the population
/// count, digitized by one 8-bit ADC per mat in a single step (vs. the
/// N-cycle CMOS counter).  CORDIV outputs instead exist as *resistance*
/// values in a column, which the ADC senses directly (Sec. IV-B) — that
/// path charges the column write.  The ADC is the paper's noiseless 8-bit
/// converter, so each code is a pure function of the stream's popcount.
#pragma once

#include <cstdint>
#include <vector>

#include "reram/adc.hpp"
#include "reram/array.hpp"
#include "sc/bitstream.hpp"

namespace aimsc::core {

class ImS2B {
 public:
  explicit ImS2B(reram::CrossbarArray& array);

  /// Voltage-input mode: the stream drives the reference column (no write).
  /// Returns the ADC code in [0, 255].
  std::uint32_t convert(const sc::Bitstream& stream);

  /// Resistance mode (CORDIV output already stored as a column): charges a
  /// column write, then senses.
  std::uint32_t convertStored(const sc::Bitstream& stream);

  /// Code scaled back to a probability in [0, 1].
  double toProbability(std::uint32_t code) const;

  /// Code scaled to an 8-bit pixel value.
  std::uint8_t toPixel(std::uint32_t code) const;

 private:
  reram::CrossbarArray& array_;
  reram::AdcModel adc_;
  /// Code per popcount for streams of codeTable_.size() - 1 bits (the
  /// array width in practice): the hot decode path is one popcount + one
  /// table load; rebuilt lazily if the length ever differs.
  std::vector<std::uint32_t> codeTable_;
};

}  // namespace aimsc::core
