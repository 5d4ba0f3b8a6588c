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
/// The class holds the two latches and commits L0.  It senses nothing
/// itself: `ScoutingLogic::greaterThanInto` runs the FFlag chain in L1 and
/// ORs each step into L0 in place, the predicated AND included.  It senses
/// only the steps that reach L0, so after a conversion L1 holds FFlag as
/// sensed up to the threshold's lowest set bit (all ones for a zero
/// threshold); nothing reads L1 after a conversion.  Commits go through
/// CrossbarArray::writeRow so write costs stay centralized.
#pragma once

#include "reram/array.hpp"

namespace aimsc::reram {

class Periphery {
 public:
  explicit Periphery(CrossbarArray& array);

  /// Captures a sensed value into the data latch (L0).
  void captureL0(const sc::Bitstream& v);

  /// Latched data, usable as a feedback operand for the next SL step.
  const sc::Bitstream& l0() const { return l0_; }

  /// The latches themselves, for a sensing step whose sense-amp output
  /// lands in a latch in place (the IMSNG FFlag chain).
  sc::Bitstream& mutableL0() { return l0_; }
  sc::Bitstream& mutableL1() { return l1_; }

  /// Commits L0 to row \p r (one real write; differential inside the array).
  void commit(std::size_t r);

  CrossbarArray& array() { return array_; }

 private:
  CrossbarArray& array_;
  sc::Bitstream l0_;
  sc::Bitstream l1_;
};

}  // namespace aimsc::reram
