/// \file scouting.hpp
/// \brief Scouting-logic execution engine (paper Sec. II-A / III-B, [24][33]).
///
/// Scouting logic realises Boolean operations as ReRAM *reads*: several rows
/// are activated simultaneously and the summed bitline current is compared
/// with reference current(s) by the modified sense amplifier.  All basic
/// gates complete in a single sensing cycle, bulk over every bitline.
///
/// Three fidelity modes:
///  * Ideal         — exact Boolean result (sigma irrelevant);
///  * Probabilistic — exact result, then per-column misdecision flips drawn
///                    from the FaultModel table (fast; used for Table IV).
///                    Each (op, ones, rows <= 3) probability is frozen into
///                    the mat's own table on first use, so sensing steps
///                    never take the model's lock (docs/ARCHITECTURE.md
///                    §4.2 has the draw order);
///  * MonteCarlo    — per-column current sampling through DeviceModel and a
///                    real SenseAmp decision (slow; validates Probabilistic).
///
/// Operands can be stored rows (activated wordlines) or *latched* streams
/// driven onto the bitlines through the periphery feedback path of Fig. 1c
/// — the mechanism that lets IMSNG-opt avoid intermediate writes.  Either
/// way one call = one sensing step = one slReads event.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "reram/array.hpp"
#include "reram/fault_model.hpp"
#include "reram/sense_amp.hpp"

namespace aimsc::reram {

class ScoutingLogic {
 public:
  enum class Fidelity { Ideal, Probabilistic, MonteCarlo };

  /// \param array      host array (event accounting, device model)
  /// \param fidelity   see class comment
  /// \param faultModel required for Probabilistic mode (not owned)
  /// \param votes      temporal redundancy: each op is sensed \p votes times
  ///                   (odd, 1/3/5) and majority-voted per column.  Charged
  ///                   as \p votes sensing steps — the "costly protection
  ///                   scheme" of Sec. IV-C that SC renders unnecessary.
  ScoutingLogic(CrossbarArray& array, Fidelity fidelity = Fidelity::Ideal,
                const FaultModel* faultModel = nullptr,
                std::uint64_t seed = 0x5c007, int votes = 1);

  /// Borrowed operand list shared by every op form: stored rows read out
  /// (`array().row(r)`) and/or latched feedback values, all array-width.
  using Operands = std::span<const sc::Bitstream* const>;

  // Every op senses into \p dst, resized to the operand width (buffer
  // reused), so a warm engine senses without heap traffic.  \p dst MAY
  // alias an operand: the per-pattern masks are materialized before the
  // destination is written (Ideal/Probabilistic fidelities; the MonteCarlo
  // and voting paths stage through scratch streams).  NOT is a one-operand
  // `opInto`.

  /// dst = op(a, b), one sensing step.
  void op2Into(SlOp op, sc::Bitstream& dst, const sc::Bitstream& a,
               const sc::Bitstream& b);
  /// dst = op(a, b, c), one sensing step.
  void op3Into(SlOp op, sc::Bitstream& dst, const sc::Bitstream& a,
               const sc::Bitstream& b, const sc::Bitstream& c);
  /// dst = op(operands), one sensing step.
  void opInto(SlOp op, sc::Bitstream& dst, Operands operands);

  /// Misdecision probability of \p op with \p ones of \p rows activated
  /// cells storing '1', read from the frozen table (0 unless the mat senses
  /// with Probabilistic fidelity).
  double misdecisionProb(SlOp op, int ones, int rows) {
    return fidelity_ == Fidelity::Probabilistic ? flipProb(op, ones, rows).p
                                                : 0.0;
  }

  Fidelity fidelity() const { return fidelity_; }
  int votes() const { return votes_; }
  CrossbarArray& array() { return array_; }

 private:
  /// Shared trunk of the op forms: validates, charges, senses into \p dst.
  void executeInto(SlOp op, Operands operands, sc::Bitstream& dst);
  /// Ideal single-sense fast path: the plain word-level gate, no masks.
  void senseIdealInto(sc::Bitstream& dst, SlOp op, Operands operands);
  void senseOnceInto(sc::Bitstream& dst, SlOp op, Operands operands,
                     const std::vector<sc::Bitstream>& masks, int numRows,
                     std::size_t width);
  /// Fills maskScratch_ with the per-pattern column masks of \p operands.
  void patternMasksInto(Operands operands);

  /// A frozen misdecision probability and its waiting-time threshold
  /// (reram/binomial.hpp); p < 0 marks an entry not read yet.
  struct FlipProb {
    double p = -1.0;
    double q = 0.0;
  };
  /// The (op, ones, rows) entry, read from the FaultModel on first use;
  /// rows > 3 (the generic mask path) is not frozen.
  FlipProb flipProb(SlOp op, int ones, int rows);
  /// Flips \p flips distinct uniformly chosen columns of \p mask in \p out.
  void flipColumns(sc::Bitstream& out, const sc::Bitstream& mask,
                   std::size_t cnt, std::size_t flips);

  CrossbarArray& array_;
  Fidelity fidelity_;
  const FaultModel* faultModel_;
  // Probabilistic mats only (empty otherwise): the frozen table, indexed
  // (op, rows, ones), and the ranks picked in one class, one bit per rank.
  std::vector<FlipProb> flipTable_;
  std::vector<std::uint64_t> picked_;
  SenseAmp senseAmp_;
  std::mt19937_64 eng_;
  int votes_;
  // Per-call scratch (a ScoutingLogic instance is single-threaded — each
  // tile-engine lane owns its own): pattern masks + expression temporaries,
  // reused across sensing steps to keep the bulk-op path allocation-free.
  // maskScratch_ only grows, so a 2-operand step keeps the 3-operand mask.
  std::vector<sc::Bitstream> maskScratch_;
  std::vector<sc::Bitstream> voteScratch_;  ///< one outcome per vote
  sc::Bitstream tmpA_;
  sc::Bitstream tmpB_;
  sc::Bitstream tmpC_;
};

}  // namespace aimsc::reram
