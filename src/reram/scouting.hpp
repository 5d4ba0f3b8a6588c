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
///                    the mat's own table on first use, and every flip is a
///                    pure function of (seed, step ordinal, pattern class,
///                    draw index) (docs/ARCHITECTURE.md §4.2 has the keys);
///  * MonteCarlo    — per-column current sampling through DeviceModel and a
///                    real SenseAmp decision (slow; validates Probabilistic
///                    one step at a time).
///
/// Operands can be stored rows (activated wordlines) or *latched* streams
/// driven onto the bitlines through the periphery feedback path of Fig. 1c
/// — the mechanism that lets IMSNG-opt avoid intermediate writes.  Either
/// way one sensing step = one slReads event.  A step activates one to three
/// rows: the paper's ops (IMSNG's AND / NOR flag chain, the AND/OR/XOR/MAJ3
/// arithmetic) never sense more.  The op forms sense one step per call;
/// greaterThanInto() charges IMSNG's whole flag chain for one threshold in
/// one call and senses the steps of it that reach the stream, under the
/// same keys.
#pragma once

#include <array>
#include <cstdint>
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
  /// \param seed       key of the mat's misdecision draws
  ScoutingLogic(CrossbarArray& array, Fidelity fidelity = Fidelity::Ideal,
                const FaultModel* faultModel = nullptr,
                std::uint64_t seed = 0x5c007);

  /// Borrowed operand list shared by every op form: stored rows read out
  /// (`array().row(r)`) and/or latched feedback values, all array-width.
  /// One to three operands; more throw std::invalid_argument.
  using Operands = std::span<const sc::Bitstream* const>;

  // Every op senses into \p dst, resized to the operand width (buffer
  // reused), so a warm engine senses without heap traffic.  \p dst MAY
  // alias an operand: a step reads word w of every operand before it
  // writes word w of \p dst.  NOT is a one-operand `opInto`.

  /// dst = op(a, b), one sensing step.
  void op2Into(SlOp op, sc::Bitstream& dst, const sc::Bitstream& a,
               const sc::Bitstream& b);
  /// dst = op(NOT a, b), one sensing step: \p a is a latch the periphery
  /// drives onto the bitlines complemented, at no cost (Fig. 1c).
  void op2NotAInto(SlOp op, sc::Bitstream& dst, const sc::Bitstream& a,
                   const sc::Bitstream& b);
  /// dst = op(a, b, c), one sensing step.
  void op3Into(SlOp op, sc::Bitstream& dst, const sc::Bitstream& a,
               const sc::Bitstream& b, const sc::Bitstream& c);
  /// dst = op(operands), one sensing step.
  void opInto(SlOp op, sc::Bitstream& dst, Operands operands);

  /// IMSNG's greater-than flag chain (Sec. III-A) for threshold \p x
  /// against the M = planes.size() random planes, MSB first (1 <= M <= 32,
  /// x <= 2^M): \p result gets bit j = (x > R_j), as sensed, misdecisions
  /// included (resized to the plane width, as is \p flag).  x = 2^M senses
  /// nothing: result is all ones and flag all zeros.  Otherwise \p flag
  /// starts all ones and \p result all zeros; then, per plane i with
  /// a = bit M-1-i of x:
  ///  * a = 1: one step senses NOR(NOT flag, plane) and ORs it into
  ///    \p result, the next senses flag = AND(flag, plane);
  ///  * a = 0: one step senses flag = NOR(NOT flag, plane).
  /// All M + popcount(x) steps are charged as SlRead events and advance
  /// steps() by M + popcount(x), but only those that reach \p result are
  /// sensed: the chain stops after the NOR term of x's lowest set bit
  /// (x = 0 senses nothing), since every later step only moves the flag.
  /// The sensed steps take the ordinals and keys the same op2NotAInto /
  /// op2Into sequence would, so \p result matches it bit for bit; the two
  /// steps of a = 1 share one pass over the words.  \p flag is FFlag as
  /// sensed up to that point: bit j is set iff R_j agrees with x on every
  /// bit above x's lowest set bit, misdecisions included (all ones for
  /// x = 0).  Ideal and Probabilistic mats only: MonteCarlo throws
  /// std::invalid_argument.
  void greaterThanInto(std::uint32_t x, Operands planes, sc::Bitstream& flag,
                       sc::Bitstream& result);

  /// Misdecision probability of \p op with \p ones of \p rows (1..3)
  /// activated cells storing '1', read from the frozen table (0 unless the
  /// mat senses with Probabilistic fidelity).
  double misdecisionProb(SlOp op, int ones, int rows);

  Fidelity fidelity() const { return fidelity_; }
  /// Key of the mat's misdecision draws (CORDIV keys its own from it).
  std::uint64_t seed() const { return seed_; }
  /// Sensing steps sensed so far: the ordinal the next step's key mixes.
  std::uint64_t steps() const { return step_; }
  CrossbarArray& array() { return array_; }

 private:
  /// A frozen misdecision probability, 1 / log(1 - p) for the geometric
  /// skip, and per class count c the integer threshold below which a
  /// draw means "no flip among c" (kUnset until first used).
  struct FlipClass {
    double p = -1.0;  ///< < 0: not read from the model yet
    double invLogQ = 0.0;
    std::vector<std::uint64_t> noFlip;
  };

  /// Shared trunk of the op forms: validates and charges one sensing step,
  /// then senses the ideal value and pattern classes in one pass over the
  /// words and applies this step's misdecisions.
  void executeInto(SlOp op, Operands operands, bool complementFirst,
                   sc::Bitstream& dst);
  /// MonteCarlo sensing: sampled currents through the sense amp.
  void sampleInto(sc::Bitstream& dst, SlOp op, Operands operands,
                  bool complementFirst);
  /// The misdecisions of step \p step of \p op over \p rows operands:
  /// each of the counts[k] columns of class k flips in \p out
  /// independently with *cls[k]'s probability; maskOf(k) gives the class's
  /// mask, words long, when a column flips.  An entry is read from the
  /// model here, the first time its class has columns.  The one flip
  /// routine of every sensing form.
  template <class MaskOf>
  void flipClasses(std::uint64_t* out, SlOp op, int rows,
                   FlipClass* const* cls, const std::size_t* counts,
                   std::size_t words, std::uint64_t step, MaskOf maskOf);
  /// The (op, ones, rows) entry, without reading it from the model.
  FlipClass& entry(SlOp op, int ones, int rows);
  /// The (op, ones, rows) entry, read from the FaultModel on first use.
  FlipClass& flipClass(SlOp op, int ones, int rows);

  CrossbarArray& array_;
  Fidelity fidelity_;
  const FaultModel* faultModel_;
  std::uint64_t seed_;
  std::uint64_t seedKey_;    ///< mix64(seed_)
  std::uint64_t step_ = 0;   ///< sensing-step ordinal
  SenseAmp senseAmp_;
  // Bit k set when a column with k of `rows` ones senses '1', per (op,
  // rows).
  std::array<std::array<std::uint8_t, 4>, 8> idealSets_{};
  // Probabilistic mats only (empty otherwise): the frozen table, indexed
  // (op, rows, ones).
  std::vector<FlipClass> flipTable_;
  // Per-step scratch of faulty mats (a ScoutingLogic instance is
  // single-threaded — each tile-engine lane owns its own), which only
  // grows: class masks, up to 4 x words (the chain keeps one mask and the
  // saved flag there), the NOR term of the chain's a = 1 steps, and a flip
  // episode's per-word prefix counts of its class mask.
  std::vector<std::uint64_t> maskWords_;
  std::vector<std::uint64_t> chainTerm_;
  std::vector<std::size_t> wordRanks_;
  sc::Bitstream sampled_;
};

}  // namespace aimsc::reram
