/// \file periphery.hpp
/// \brief Write-latch periphery with the feedback path of Fig. 1c.
///
/// Nonvolatile memories employ double latches and a write driver for
/// differential writes [31]: latch L0 holds the data to write, latch L1
/// holds the "modify" mask.  The paper reuses this machinery for two
/// optimizations (Sec. III-A):
///
///  * *feedback* — a latched sense-amp output can be converted back into a
///    bitline voltage (Vb) for the next scouting-logic step, so intermediate
///    logic values never touch the cells (IMSNG-naive avoids 3 of the 5
///    per-bit writes this way);
///  * *predicated sensing* — the AND with the FFlag chain is folded into the
///    latch pair itself, eliminating the remaining intermediate writes
///    (IMSNG-opt performs zero intermediate writes).
///
/// The class tracks latch contents and charges latch events; commits go
/// through CrossbarArray::writeRow so write costs stay centralized.
#pragma once

#include "reram/array.hpp"

namespace aimsc::reram {

class Periphery {
 public:
  explicit Periphery(CrossbarArray& array);

  /// Captures a sensed value into the data latch (L0).
  void captureL0(const sc::Bitstream& v);

  /// Captures a value into the mask/flag latch (L1).
  void captureL1(const sc::Bitstream& v);

  /// Latched data, usable as a feedback operand for the next SL step.
  const sc::Bitstream& l0() const { return l0_; }
  const sc::Bitstream& l1() const { return l1_; }

  /// The latches themselves, for a sensing step whose sense-amp output
  /// lands in a latch in place (the IMSNG FFlag chain).
  sc::Bitstream& mutableL0() { return l0_; }
  sc::Bitstream& mutableL1() { return l1_; }

  /// Predicated latch update: L0 &= L1 without any array access — the
  /// write-driver pair natively computes "data AND modify" (IMSNG-opt).
  void predicateL0ByL1();

  /// Commits L0 to row \p r (one real write; differential inside the array).
  void commit(std::size_t r);

  CrossbarArray& array() { return array_; }

 private:
  CrossbarArray& array_;
  sc::Bitstream l0_;
  sc::Bitstream l1_;
};

}  // namespace aimsc::reram
