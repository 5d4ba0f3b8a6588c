/// \file imsng.hpp
/// \brief In-memory stochastic number generation (paper Sec. III-A) — the
///        paper's central contribution.
///
/// True random M-bit numbers live in the array as M bit-plane rows (row r =
/// bit r of the N per-column random numbers, MSB first).  Converting a
/// binary operand A into an SBS is the bulk greater-than comparison
/// A > RN executed with scouting logic: the flag chain (FFlag) lives in
/// latch L1 and the accumulated result in latch L0, so one pass over the M
/// bit-planes emits the whole N-bit stream at once.
///
/// Variants (Sec. III-A):
///  * Naive — intermediate gate outputs are written back to ReRAM rows
///            (2 writes per bit after the feedback mechanism removes the
///            other three): charged 2·M intermediate rowWrites;
///  * Opt   — the write-driver latch pair implements the FFlag AND as
///            *predicated sensing*: zero intermediate writes.
/// Both variants produce bit-identical streams; they differ only in cost.
///
/// Cost parity: each conversion charges the paper's generic 5·M sensing
/// steps ("5n operations ... each logic gate requires one sensing step").
/// The XAG constant-folded schedule is a logic-synthesis ablation that
/// bench_ablations computes from src/logic directly.
///
/// Correlation control: streams generated against the same random planes
/// are maximally correlated (SCC = +1); refreshRandomness() deposits fresh
/// TRNG planes for independent streams.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "reram/adc.hpp"
#include "reram/array.hpp"
#include "reram/periphery.hpp"
#include "reram/scouting.hpp"
#include "reram/trng.hpp"
#include "reram/wear.hpp"
#include "sc/bulk_sng.hpp"

namespace aimsc::core {

struct ImsngConfig {
  int mBits = 8;  ///< segment size M (random-number width), paper Table I: 5..9

  enum class Variant { Naive, Opt };
  Variant variant = Variant::Opt;

  /// Array row where the random bit-planes start.
  std::size_t randomPlaneBase = 0;

  /// Array row receiving the generated SBS.
  std::size_t outputRow = 0;

  /// Commit the generated SBS to the output row (one real write).  Table III
  /// reports the conversion logic alone, so the hardware-cost bench disables
  /// the commit; applications keep it on.
  bool commitResult = true;

  /// Wear-leveling window starting at `randomPlaneBase`: when >= mBits, each
  /// refreshRandomness() deposits the planes at the next WearLeveler base in
  /// the window, spreading refresh writes across windowRows/mBits positions.
  /// Rotation changes WHICH rows hold the planes, never their contents, so
  /// every generated stream is bit-identical to the unrotated configuration.
  /// 0 (default) = fixed base, historic behaviour.
  std::size_t wearWindowRows = 0;
};

class Imsng {
 public:
  /// \param array     crossbar holding the random planes and the output row
  /// \param scouting  SL engine bound to \p array (faults flow through it);
  ///                  Ideal or Probabilistic (MonteCarlo throws
  ///                  std::invalid_argument)
  /// \param periphery latch pair of \p array
  /// \param trng      random-plane source
  Imsng(reram::CrossbarArray& array, reram::ScoutingLogic& scouting,
        reram::Periphery& periphery, reram::ReramTrng& trng,
        const ImsngConfig& config = ImsngConfig{});

  /// Deposits fresh TRNG bit-planes (M rows).  Call between conversions
  /// that must be *independent*; skip it to obtain correlated streams.
  void refreshRandomness();

  /// Converts integer threshold \p x in [0, 2^M] to an SBS into \p dst
  /// (resized to the array width, buffer reused): bit j = 1 iff x > RN_j.
  /// The stream is also committed to the configured output row.  One
  /// ScoutingLogic::greaterThanInto call runs the flag chain in the
  /// periphery latches in place, so a warm call allocates nothing.  It
  /// charges every step of the chain but senses only those that reach the
  /// stream, up to the NOR term of x's lowest set bit (none for x = 0 or
  /// 2^M), so latch L1 is left holding FFlag as sensed up to that point.
  void generateThresholdInto(std::uint32_t x, sc::Bitstream& dst);

  /// Batched conversion: every threshold is converted against the CURRENT
  /// random planes — one randomness epoch for the whole batch, so streams
  /// within it are mutually correlated, exactly as repeated
  /// generateThresholdInto() calls without an intervening refresh; stream i
  /// is written into `*outs[i]`.  Event accounting is identical to the
  /// per-call path (each conversion charges its 5·M sensing schedule and
  /// its commit write); under Ideal sensing with M <= 8 the streams are
  /// bit-identical to the per-call path, produced by a word-level
  /// comparator with per-epoch threshold memoization (duplicate pixel
  /// values re-use the computed stream but still charge their conversion).
  /// Probabilistic sensing and M > 8 run one greater-than chain per
  /// element (ScoutingLogic::greaterThanInto), so every conversion draws
  /// its own keyed misdecisions on the steps that reach its stream, and
  /// advances the mat's step ordinal by its whole chain as the hardware
  /// senses it.  The call performs no heap allocation once
  /// the destination buffers, the memo table and the scouting scratch are
  /// warm — the tile engine's per-row hot path.
  void encodeBatchInto(std::span<const std::uint32_t> thresholds,
                       std::span<sc::Bitstream* const> outs);

  /// Batched 8-bit pixel conversion (p = v / 255), same epoch semantics.
  void encodePixelBatchInto(std::span<const std::uint8_t> values,
                            std::span<sc::Bitstream* const> outs);

  std::size_t streamLength() const { return array_.cols(); }
  const ImsngConfig& config() const { return config_; }

  /// Row currently holding the first random plane (rotates with wear
  /// leveling; equals `config().randomPlaneBase` otherwise).
  std::size_t planeBase() const { return planeBase_; }

 private:
  /// Sensing steps charged per conversion: the paper's generic 5·M.
  std::size_t stepsPerConversion() const {
    return 5 * static_cast<std::size_t>(config_.mBits);
  }
  /// Charges the per-conversion schedule + commit of \p result.
  void chargeConversion(const sc::Bitstream& result);
  /// (Re)initializes the epoch-stamped memo table for a new Ideal batch.
  void beginMemoEpoch();

  /// Rebuilds the per-epoch comparator byte cache from the current plane
  /// rows (M <= 8 only): column j's random number R_j, MSB = plane 0.
  void buildEpochBytes();

  reram::CrossbarArray& array_;
  reram::ScoutingLogic& scouting_;
  reram::Periphery& periphery_;
  reram::ReramTrng& trng_;
  ImsngConfig config_;
  std::optional<reram::WearLeveler> wear_;  ///< plane-base rotation (opt-in)
  std::size_t planeBase_ = 0;  ///< base row of the current plane set
  bool planesReady_ = false;
  // Per-epoch comparator byte cache (M <= 8, Ideal sensing): the plane rows
  // untransposed into the per-column random numbers R_j, served through the
  // packed RandomPlanes comparator (x > R_j == R_j < x, the identical
  // predicate word/AVX2-parallel).  One untranspose pass per epoch replaces
  // an M-plane flag-chain walk per DISTINCT threshold — the dominant cost
  // of the encode stage (the "shared epoch derivation" serializer).
  sc::RandomPlanes epochPlanes_;
  std::vector<std::uint8_t> epochByteScratch_;
  bool epochBytesReady_ = false;
  // Per-epoch threshold memo: memoStamp_[x] == memoEpoch_ marks a valid
  // entry, so batch calls reuse the table without clearing 2^M slots.
  std::vector<std::uint64_t> memoStamp_;
  std::vector<std::size_t> memoIndex_;
  std::uint64_t memoEpoch_ = 0;
  std::vector<std::uint32_t> thresholdScratch_;  ///< pixel-batch staging
  /// Pixel-value -> comparator-threshold table (quantizeProbability(v/255,
  /// M) is an Imsng invariant; the hot batch path looks it up instead of
  /// re-rounding three times per pixel).
  std::array<std::uint32_t, 256> pixelThreshold_{};
};

}  // namespace aimsc::core
