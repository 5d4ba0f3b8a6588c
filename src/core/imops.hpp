/// \file imops.hpp
/// \brief In-memory stochastic arithmetic on scouting logic (Sec. III-B).
///
/// Every operation maps to the bulk-bitwise SL gate of Fig. 2 and completes
/// in O(1) sensing steps — except CORDIV division, which is serial in the
/// stream position because of the flip-flop dependency (O(N), realised with
/// the existing write-driver latches as a JK flip-flop; intermediate values
/// are forwarded as bitline voltages, never written).
///
/// Faults: bulk ops run through ScoutingLogic, which injects per-column
/// misdecisions; CORDIV iterations flip their two sensed terms with the
/// scouting engine's frozen AND probabilities, each draw keyed by (mat
/// seed, divide-call ordinal, iteration, term).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "reram/scouting.hpp"
#include "sc/cordiv.hpp"

namespace aimsc::core {

class ImOps {
 public:
  /// \param scouting SL engine (fault injection & event accounting); a
  ///                 Probabilistic engine also makes CORDIV faulty, keyed
  ///                 by the engine's seed
  explicit ImOps(reram::ScoutingLogic& scouting) : scouting_(scouting) {}

  // Every op writes into \p dst, resized to the operand width (buffer
  // reused), so a warm engine computes without heap traffic.  \p dst may
  // alias any operand except in divideInto / bernsteinSelectInto (serial
  // recurrence / selection network read their inputs after output bits are
  // written).

  /// Multiplication: AND, independent inputs, one sensing step.
  void multiplyInto(sc::Bitstream& dst, const sc::Bitstream& x,
                    const sc::Bitstream& y);

  /// Scaled addition: 3-input MAJ with a P=0.5 select stream, one step.
  void scaledAddInto(sc::Bitstream& dst, const sc::Bitstream& x,
                     const sc::Bitstream& y, const sc::Bitstream& half);

  /// Approximate addition: OR, inputs in [0, 0.5].
  void addApproxInto(sc::Bitstream& dst, const sc::Bitstream& x,
                     const sc::Bitstream& y);

  /// Absolute subtraction: XOR (window op), correlated inputs.
  void absSubInto(sc::Bitstream& dst, const sc::Bitstream& x,
                  const sc::Bitstream& y);

  /// Minimum / maximum over correlated inputs: AND / OR.
  void minimumInto(sc::Bitstream& dst, const sc::Bitstream& x,
                   const sc::Bitstream& y);
  void maximumInto(sc::Bitstream& dst, const sc::Bitstream& x,
                   const sc::Bitstream& y);

  /// CORDIV division x / y over correlated streams (x <= y), serial O(N);
  /// charges one cordivIteration per bit.
  void divideInto(sc::Bitstream& dst, const sc::Bitstream& x,
                  const sc::Bitstream& y,
                  sc::CordivVariant variant = sc::CordivVariant::JkFlipFlop);

  /// MUX via MAJ tree (compositing / bilinear kernels); sel favours x.
  void majMuxInto(sc::Bitstream& dst, const sc::Bitstream& x,
                  const sc::Bitstream& y, const sc::Bitstream& sel);

  /// 4-to-1 MUX via three MAJ steps (bilinear interpolation).
  void majMux4Into(sc::Bitstream& dst, const sc::Bitstream& i11,
                   const sc::Bitstream& i12, const sc::Bitstream& i21,
                   const sc::Bitstream& i22, const sc::Bitstream& sx,
                   const sc::Bitstream& sy);

  /// Bernstein selection network (extension; sc/bernstein.hpp) over
  /// borrowed streams: selects among the coefficient streams by the
  /// ones-count of the x copies.  Charged as a MUX tree of
  /// (copies + coeffs - 1) sensing steps; faults reach the result through
  /// the encoded input streams.
  void bernsteinSelectInto(sc::Bitstream& dst,
                           std::span<const sc::Bitstream* const> xCopies,
                           std::span<const sc::Bitstream* const> coeffs);

  reram::ScoutingLogic& scouting() { return scouting_; }

 private:
  reram::ScoutingLogic& scouting_;
  std::uint64_t divideCalls_ = 0;  ///< CORDIV call ordinal (draw keys)
  // MAJ-tree stage scratch (an ImOps instance is single-threaded; each
  // tile-engine lane owns its own).
  sc::Bitstream tmpTop_;
  sc::Bitstream tmpBottom_;
};

}  // namespace aimsc::core
