/// \file aritpim.hpp
/// \brief Bit-serial in-memory binary arithmetic — the AritPIM-style binary
///        CIM baseline the paper compares against ([35], Table IV, Fig 4/5).
///
/// All operations are built from MagicEngine gates so that (a) gate-cycle
/// counts accumulate for the cost model and (b) device faults strike
/// individual gates, where a single high-bit error corrupts the result
/// badly — the effect behind the paper's 47% average quality drop for
/// traditional arithmetic (vs 5% for SC).
///
/// Complexities mirror the paper's discussion: addition O(n) (ripple),
/// multiplication O(n^2) (shift-add), division O(n^2) (restoring, "requires
/// O(n^2) write cycles").  Gate counts: 18n for add, 19n for subtract,
/// 39n^2 for multiply and 19 per remainder bit per quotient bit for
/// divide; TMR triples them, DMR doubles them and adds one gate per
/// disagreement.
///
/// Operands are words; each op reads only its low `bits` (divide: the
/// numerator's low `numBits`, the denominator's low `denBits + 2`), as its
/// bit-serial datapath does.  When the engine's clear-run check finds no
/// candidate execution in a whole add, subtract or multiply, the op returns
/// the closed form of that datapath and charges its gate count; otherwise
/// it walks the engine's full adders, inverters and ANDs bit by bit, each
/// network checked on its own.  Both give the same words, counts and
/// positions (docs/ARCHITECTURE.md §4.1).  Divide runs its restoring
/// recurrence over subtract units.
#pragma once

#include <cstdint>

#include "bincim/gates.hpp"

namespace aimsc::bincim {

/// Integer arithmetic on a MagicEngine (not owned).
class AritPim {
 public:
  /// Binds the arithmetic to \p engine.
  explicit AritPim(MagicEngine& engine) : engine_(engine) {}

  /// \p bits-wide ripple-carry addition; result is (bits+1) wide.
  std::uint32_t add(std::uint32_t a, std::uint32_t b, int bits);

  /// a - b (two's complement); negative results clamp to 0 via the borrow.
  std::uint32_t subSaturating(std::uint32_t a, std::uint32_t b, int bits);

  /// \p bits x \p bits shift-add multiplication; result 2*bits wide.
  std::uint32_t mul(std::uint32_t a, std::uint32_t b, int bits);

  /// Restoring division: \p numBits-wide numerator / \p denBits-wide
  /// denominator -> numBits-wide quotient (saturates on overflow/zero-div).
  /// The remainder register is denBits + 2 wide and wraps like the gates.
  std::uint32_t div(std::uint32_t num, std::uint32_t den, int numBits,
                    int denBits);

  /// The gate engine the ops run on.
  MagicEngine& engine() { return engine_; }

 private:
  std::uint32_t subtract(std::uint32_t a, std::uint32_t b, int bits);

  MagicEngine& engine_;
};

}  // namespace aimsc::bincim
