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
/// full adder, the inverter and the 3-gate AND.  Every gate execution has
/// a position, numbered from construction with protection copies included,
/// and each execution of a pattern with misdecision probability p flips
/// independently with probability p.  The flips are a pure function of
/// (seed, position, pattern) drawn by thinning (docs/ARCHITECTURE.md §4.1):
///
///  * candidate positions form a keyed Bernoulli(p_max) process, drawn by
///    geometric skip, where p_max is the largest of the five probabilities;
///  * a candidate whose pattern has probability p flips when a second keyed
///    uniform is below p / p_max.
///
/// So only candidates cost a draw.  A unit (a network, or a whole AritPim
/// add, subtract or multiply) holding no candidate among its executions
/// cannot flip: `clearRun` charges it and the caller returns its closed
/// form.  Only a network holding a candidate walks gate by gate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

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
  /// \param seed       key of the engine's candidate and thinning draws
  /// \param faultScale scales each gate's misdecision probability (the
  ///        product is clamped to [0, 1]).  Our pedagogical decomposition
  ///        (5-NOR XOR, 18-NOR full adder) issues ~4x the gate cycles of an
  ///        optimized AritPIM mapping, so an equal-fault-surface comparison
  ///        uses faultScale ~ 0.25 (same rationale as the analytic cycle
  ///        counts in the cost profile).
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

  /// Primitive gates in \p count evaluations of \p net, one protection
  /// copy each (counted on the networks themselves).
  static std::uint64_t gates(Net net, std::uint64_t count);

  /// The clear-run check for a unit of \p gates primitives.  When none of
  /// its next gates x copies executions is a candidate, no gate among them
  /// can flip and no DMR execution can disagree, so the unit runs exactly
  /// as its fault-free evaluation: the engine advances its position past
  /// them, charges them and returns true.  Otherwise it changes nothing
  /// and returns false.  Freezes the probability table on first call.
  bool clearRun(std::uint64_t gates);

  /// Total primitive gate executions (MAGIC write cycles) since the last
  /// resetCounter().
  std::uint64_t gateOps() const { return gateOps_; }
  /// Clears the write-cycle counter; the position keeps counting.
  void resetCounter() { gateOps_ = 0; }

  /// Gate executions since construction, protection copies included.
  std::uint64_t position() const { return pos_; }
  /// Position of the next candidate execution, or ~0 when no gate can flip
  /// (determinism checks).  Freezes the probability table on first call.
  std::uint64_t nextCandidate();

 private:
  struct Walker;

  void freeze();
  /// Places candidate number candidates_ at or after \p from.
  void drawCandidate(std::uint64_t from);
  /// One execution of a gate on pattern \p slot: true when it flips.
  bool execute(std::size_t slot);
  std::uint32_t inject(std::uint32_t ideal, std::size_t slot);

  const reram::FaultModel* faultModel_;
  double faultScale_;
  std::uint64_t seedKey_;  ///< mix64(seed)
  Protection protection_ = Protection::None;
  std::uint64_t copies_ = 1;  ///< executions per gate without a fault
  std::uint64_t gateOps_ = 0;
  std::uint64_t pos_ = 0;

  // Frozen on first use (see freeze()).
  bool frozen_ = false;
  /// Scaled, clamped misdecision probability: NOR with 0/1/2 ones, NOT
  /// with 0/1.
  std::array<double, 5> p_{};
  double pMax_ = 0.0;
  double invLogQ_ = 0.0;  ///< 1 / log(1 - p_max), for the geometric skip
  /// A candidate on pattern k flips when its thinning draw's top 53 bits
  /// are below keepBelow_[k] = ceil(p_k / p_max * 2^53).
  std::array<std::uint64_t, 5> keepBelow_{};
  std::uint64_t candidates_ = 0;  ///< candidates placed so far
  std::uint64_t nextCand_ = ~std::uint64_t{0};
};

}  // namespace aimsc::bincim
