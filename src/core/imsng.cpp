#include "core/imsng.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sc/sng.hpp"

namespace aimsc::core {

Imsng::Imsng(reram::CrossbarArray& array, reram::ScoutingLogic& scouting,
             reram::Periphery& periphery, reram::ReramTrng& trng,
             const ImsngConfig& config)
    : array_(array),
      scouting_(scouting),
      periphery_(periphery),
      trng_(trng),
      config_(config) {
  if (config_.mBits < 1 || config_.mBits > 16) {
    throw std::invalid_argument("Imsng: mBits out of range");
  }
  if (scouting_.fidelity() == reram::ScoutingLogic::Fidelity::MonteCarlo) {
    // MonteCarlo sensing checks the Probabilistic table one step at a
    // time; the greater-than chain senses Ideal or Probabilistic mats.
    throw std::invalid_argument("Imsng: MonteCarlo sensing is not supported");
  }
  const std::size_t m = static_cast<std::size_t>(config_.mBits);
  // The plane region is the rotation window when wear leveling is on (every
  // row in it may hold planes at some point), M fixed rows otherwise.
  const std::size_t planeRegion = std::max(m, config_.wearWindowRows);
  if (config_.randomPlaneBase + planeRegion > array_.rows() ||
      config_.outputRow >= array_.rows()) {
    throw std::invalid_argument("Imsng: rows do not fit the array");
  }
  if (config_.outputRow >= config_.randomPlaneBase &&
      config_.outputRow < config_.randomPlaneBase + planeRegion) {
    throw std::invalid_argument("Imsng: output row overlaps random planes");
  }
  if (config_.wearWindowRows >= m) {
    wear_.emplace(config_.randomPlaneBase, config_.wearWindowRows, m);
  } else if (config_.wearWindowRows != 0) {
    throw std::invalid_argument("Imsng: wear window smaller than plane set");
  }
  planeBase_ = config_.randomPlaneBase;
  for (std::size_t v = 0; v < pixelThreshold_.size(); ++v) {
    pixelThreshold_[v] = sc::quantizeProbability(
        static_cast<double>(v) / 255.0, config_.mBits);
  }
}

void Imsng::refreshRandomness() {
  // With wear leveling, each refresh deposits at the next rotation base;
  // the TRNG sequence is independent of WHERE the planes land, so streams
  // stay bit-identical while refresh writes spread across the window.
  if (wear_.has_value()) planeBase_ = wear_->nextBase();
  trng_.fillRows(array_, planeBase_, static_cast<std::size_t>(config_.mBits));
  planesReady_ = true;
  epochBytesReady_ = false;  // plane contents changed; cache is stale
}

void Imsng::buildEpochBytes() {
  // Untranspose the M <= 8 plane rows into the per-column bytes R_j (plane
  // i holds bit M-1-i of every column).  One pass per epoch, amortized over
  // every distinct threshold encoded against these planes.
  const std::size_t n = array_.cols();
  epochByteScratch_.assign(n, 0);
  for (int i = 0; i < config_.mBits; ++i) {
    const auto& rn =
        array_.row(planeBase_ + static_cast<std::size_t>(i)).words();
    const int bit = config_.mBits - 1 - i;
    for (std::size_t w = 0; w < rn.size(); ++w) {
      std::uint64_t word = rn[w];
      const std::size_t base = w * 64;
      while (word != 0) {
        const auto j = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (base + j < n) {
          epochByteScratch_[base + j] |=
              static_cast<std::uint8_t>(1u << bit);
        }
      }
    }
  }
  epochPlanes_.assign(epochByteScratch_.data(), n);
  epochBytesReady_ = true;
}

void Imsng::generateThresholdInto(std::uint32_t x, sc::Bitstream& dst) {
  const int m = config_.mBits;
  const std::uint32_t full = std::uint32_t{1} << m;
  if (x > full) throw std::invalid_argument("Imsng: threshold exceeds 2^M");
  if (!planesReady_) refreshRandomness();

  // The FFlag chain senses into L1 and the result accumulates in L0, in
  // place: complemented latch operands are free (the periphery drives the
  // bitline voltage, Fig. 1c) and the AND with FFlag is predicated sensing
  // in the latch pair.  x = 2^M (p = 1.0) senses nothing: the comparator
  // network degenerates to constant true.
  std::array<const sc::Bitstream*, 16> planes{};
  for (int i = 0; i < m; ++i) {
    planes[static_cast<std::size_t>(i)] =
        &array_.row(planeBase_ + static_cast<std::size_t>(i));
  }
  const std::uint64_t before = scouting_.steps();
  scouting_.greaterThanInto(
      x, std::span(planes.data(), static_cast<std::size_t>(m)),
      periphery_.mutableL1(), periphery_.mutableL0());
  const auto dataflowReads =
      static_cast<std::size_t>(scouting_.steps() - before);
  dst = periphery_.l0();

  // Cost parity with the paper's operation count: the dataflow above issued
  // `dataflowReads` <= 2·M sensing steps; top up to the 5·M schedule.
  auto& log = array_.events();
  log.add(reram::EventKind::SlRead, stepsPerConversion() - dataflowReads);
  // Naive variant: intermediate results hit the cells (2 writes per bit
  // even after the feedback mechanism, Sec. III-A).
  if (config_.variant == ImsngConfig::Variant::Naive) {
    log.add(reram::EventKind::RowWrite, 2 * static_cast<std::size_t>(m));
  }

  // Both variants commit the final SBS, held in L0, once ("at least one
  // write").
  if (config_.commitResult) periphery_.commit(config_.outputRow);
}

void Imsng::chargeConversion(const sc::Bitstream& result) {
  // Mirror generateThresholdInto(): the 5·M schedule, the Naive variant's
  // intermediate writes and the commit.
  auto& log = array_.events();
  log.add(reram::EventKind::SlRead, stepsPerConversion());
  if (config_.variant == ImsngConfig::Variant::Naive) {
    log.add(reram::EventKind::RowWrite,
            2 * static_cast<std::size_t>(config_.mBits));
  }
  if (config_.commitResult) {
    periphery_.captureL0(result);
    periphery_.commit(config_.outputRow);
  }
}

void Imsng::beginMemoEpoch() {
  const std::uint32_t full = std::uint32_t{1} << config_.mBits;
  if (memoStamp_.size() != static_cast<std::size_t>(full) + 1) {
    memoStamp_.assign(static_cast<std::size_t>(full) + 1, 0);
    memoIndex_.assign(static_cast<std::size_t>(full) + 1, 0);
  }
  ++memoEpoch_;
}

void Imsng::encodeBatchInto(std::span<const std::uint32_t> thresholds,
                            std::span<sc::Bitstream* const> outs) {
  if (outs.size() != thresholds.size()) {
    throw std::invalid_argument("Imsng::encodeBatchInto: size mismatch");
  }
  if (!planesReady_) refreshRandomness();

  if (scouting_.fidelity() != reram::ScoutingLogic::Fidelity::Ideal ||
      config_.mBits > 8) {
    // Faulty sensing keys each step's misdecisions by the mat's step
    // ordinal, so every conversion runs its greater-than chain; so do
    // widths the byte cache cannot hold.
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
      generateThresholdInto(thresholds[i], *outs[i]);
    }
    return;
  }

  // One epoch shares one plane set, so a threshold seen twice yields the
  // same stream: memoize per distinct value (the conversion is still
  // charged — the hardware runs it — only the simulator skips the
  // recompute).  The table is an epoch-stamped member so repeated batch
  // calls don't re-initialize 2^M entries.
  const std::uint32_t full = std::uint32_t{1} << config_.mBits;
  // Distinct thresholds come from the per-epoch comparator byte cache
  // (bit-identical: R_j < x evaluated word/AVX2-parallel instead of the
  // M-plane flag-chain walk per value).
  if (!epochBytesReady_) buildEpochBytes();
  beginMemoEpoch();
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const std::uint32_t x = thresholds[i];
    if (x > full) throw std::invalid_argument("Imsng: threshold exceeds 2^M");
    if (memoStamp_[x] == memoEpoch_) {
      *outs[i] = *outs[memoIndex_[x]];
    } else {
      memoStamp_[x] = memoEpoch_;
      memoIndex_[x] = i;
      if (x == full) {
        outs[i]->assign(array_.cols(), true);
      } else {
        epochPlanes_.encode(x, *outs[i]);
      }
    }
    chargeConversion(*outs[i]);
  }
}

void Imsng::encodePixelBatchInto(std::span<const std::uint8_t> values,
                                 std::span<sc::Bitstream* const> outs) {
  thresholdScratch_.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    thresholdScratch_[i] = pixelThreshold_[values[i]];
  }
  encodeBatchInto(thresholdScratch_, outs);
}

}  // namespace aimsc::core
