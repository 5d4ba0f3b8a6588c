/// \file gates.hpp
/// \brief MAGIC-style in-memory Boolean gate engine for the binary CIM
///        baseline (AritPIM [35], MAGIC [23]).
///
/// Binary CIM computes with *stateful* logic: each NOR gate is a write
/// cycle programming an output cell from the currents of the input cells.
/// Like scouting logic, the decision is threshold-based and fails when the
/// device distributions overlap, so the same FaultModel supplies the
/// per-gate misdecision probabilities (paper Sec. IV-C: "In digital CIM, a
/// fault is a bit flip").  Every gate execution is counted; the counts feed
/// the system model's binary-CIM cost and the Table IV fault study.
///
/// The engine evaluates the three networks AritPim issues: the 18-gate
/// full adder, the inverter and the 3-gate AND.  A gate whose pattern has
/// misdecision probability p > 0 takes one uniform draw from the engine's
/// `mt19937_64` per execution and flips when the draw is below p.  Two
/// shortcuts keep that contract at word speed (docs/ARCHITECTURE.md):
///
///  * the five probabilities are read once, on first use, into a frozen
///    table; when all are zero `faultFree()` lets AritPim return closed
///    forms and charge the gate counts through `chargeFaultFree()`;
///  * otherwise each network first screens, in a look-ahead buffer of raw
///    generator outputs, the draws its fault-free evaluation would take.
///    If none can fall below the largest probability no gate can flip, so
///    the ideal outputs are returned and the draws skipped; only the rest
///    walk their gates.
///
/// Outputs, gate counts and the order of generator draws are exactly those
/// of a gate-by-gate evaluation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

#include "reram/fault_model.hpp"

/// \namespace aimsc::bincim
/// \brief Binary CIM baseline: MAGIC gates and AritPIM integer arithmetic.
namespace aimsc::bincim {

/// MAGIC gate engine: misdecision injection, retry-and-vote protection and
/// the write-cycle ledger.  One engine per lane; not thread-safe.
class MagicEngine {
 public:
  /// Engine drawing its misdecisions from \p faultModel (not owned).
  /// \param faultModel nullptr = fault-free execution
  /// \param seed       seed of the engine's `mt19937_64` draw sequence
  /// \param faultScale scales each gate's misdecision probability.  Our
  ///        pedagogical decomposition (5-NOR XOR, 18-NOR full adder) issues
  ///        ~4x the gate cycles of an optimized AritPIM mapping, so an
  ///        equal-fault-surface comparison uses faultScale ~ 0.25 (same
  ///        rationale as the analytic cycle counts in the cost profile).
  explicit MagicEngine(const reram::FaultModel* faultModel = nullptr,
                       std::uint64_t seed = 0xb17c, double faultScale = 1.0);

  /// Temporal-redundancy protection for binary CIM (the "costly protection
  /// scheme" discussion of Sec. IV-C / [41]): Dmr executes each gate twice
  /// and breaks disagreements with a third execution (~2.06x gate cycles,
  /// residual error ~p^2); Tmr always executes three times and takes the
  /// majority (3x gate cycles, residual error ~3p^2 — the retry-and-vote
  /// knob of the reliability campaign, cost-predictable unlike Dmr).
  enum class Protection {
    None,  ///< one execution per gate
    Dmr,   ///< two executions, a third on disagreement
    Tmr,   ///< three executions, majority vote
  };
  /// Selects the protection mode for every later gate.
  void setProtection(Protection p);
  /// The active protection mode.
  Protection protection() const { return protection_; }

  /// Sum and carry bits of one full adder.
  struct FullAdderOut {
    std::uint32_t sum;    ///< a XOR b XOR cin
    std::uint32_t carry;  ///< MAJ(a, b, cin)
  };

  /// The gate networks the engine evaluates.
  enum class Net {
    FullAdder,  ///< fullAdder(): two XORs, two ANDs and an OR
    Not,        ///< notGate(): one inverter
    And,        ///< andGate(): NOR(NOT a, NOT b)
  };

  /// Full adder on bits (0 or 1).
  FullAdderOut fullAdder(std::uint32_t a, std::uint32_t b, std::uint32_t cin);
  /// Inverter on a bit (0 or 1).
  std::uint32_t notGate(std::uint32_t a);
  /// AND on bits (0 or 1).
  std::uint32_t andGate(std::uint32_t a, std::uint32_t b);

  /// True when every gate's misdecision probability is zero (no fault
  /// model, zero scale or zero variability): no gate draws or flips, so
  /// an op may compute its closed form and charge its gates with
  /// `chargeFaultFree`.  Freezes the probability table on first call.
  bool faultFree() {
    if (!frozen_) freeze();
    return faultFree_;
  }
  /// Charges \p count fault-free evaluations of \p net without drawing:
  /// each of its primitives executes once per protection copy (x1 / x2 /
  /// x3).
  void chargeFaultFree(Net net, std::uint64_t count) {
    if (!frozen_) freeze();
    gateOps_ += count * gatesPerNet_[static_cast<std::size_t>(net)] * copies_;
  }

  /// Total primitive gate executions (MAGIC write cycles) so far.
  std::uint64_t gateOps() const { return gateOps_; }
  /// Clears the write-cycle counter.
  void resetCounter() { gateOps_ = 0; }

  /// Consumes and returns the next raw `mt19937_64` output the next
  /// drawing gate would see (determinism checks).
  std::uint64_t nextRawDraw();

 private:
  struct Walker;
  struct Draws;

  /// Raw outputs buffered ahead of the gates: 1 KiB.
  static constexpr std::size_t kLookAhead = 128;

  void freeze();
  bool screen(std::size_t input);
  std::uint32_t inject(std::uint32_t ideal, std::size_t slot);
  std::uint64_t takeDraw();
  void refill();
  std::size_t firstHit(std::size_t from) const;
  std::uint64_t largestRawBelow(double p);

  const reram::FaultModel* faultModel_;
  double faultScale_;
  Protection protection_ = Protection::None;
  std::uint64_t copies_ = 1;  ///< executions per gate without a fault
  std::uint64_t gateOps_ = 0;
  std::mt19937_64 eng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};

  // Frozen on first use (see freeze()).
  bool frozen_ = false;
  bool faultFree_ = true;
  /// Scaled misdecision probability: NOR with 0/1/2 ones, NOT with 0/1.
  std::array<double, 5> p_{};
  /// Primitives per network, in Net order, counted on the networks.
  std::array<std::uint64_t, 3> gatesPerNet_{};
  /// Drawing gates of each network's fault-free walk, per input: full
  /// adder (a | b<<1 | cin<<2), then NOT (a), then AND (a | b<<1).
  std::array<std::uint8_t, 14> drawsPerInput_{};
  /// A raw output at or below this may flip a gate; above it cannot.
  std::uint64_t hitBound_ = 0;

  // Look-ahead buffer: ahead_[pos_, kLookAhead) are the next raw outputs
  // in draw order; nextHit_ indexes the first of them at or below
  // hitBound_ (kLookAhead when none).
  std::array<std::uint64_t, kLookAhead> ahead_{};
  std::size_t pos_ = kLookAhead;
  std::size_t nextHit_ = kLookAhead;
};

}  // namespace aimsc::bincim
