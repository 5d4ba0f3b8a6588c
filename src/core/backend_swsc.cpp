#include "core/backend_swsc.hpp"

#include <array>

#include "img/image.hpp"
#include "reliability/fault_rng.hpp"
#include "sc/bernstein.hpp"
#include "sc/cordiv.hpp"
#include "sc/ops.hpp"
#include "sc/sng.hpp"

namespace aimsc::core {

const char* swScSngName(SwScSng sng) {
  switch (sng) {
    case SwScSng::Lfsr: return "LFSR";
    case SwScSng::Sobol: return "Sobol";
    case SwScSng::Sfmt: return "SFMT";
  }
  return "?";
}

std::uint32_t swScPixelThreshold(std::uint8_t v) {
  static const auto kTable = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = sc::quantizeProbability(static_cast<double>(i) / 255.0, 8);
    }
    return t;
  }();
  return kTable[v];
}

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
/// Offset separating the constant-stream seed space from the epoch space.
constexpr std::uint64_t kConstSpace = 0x517ec0de'0000'0000ull;

}  // namespace

std::uint32_t swScLfsrSeedForEpoch(std::uint64_t seed, std::uint64_t epoch) {
  // A new LFSR phase per epoch; the golden-ratio stride decorrelates
  // consecutive epochs over the 254 usable seeds.
  const std::uint64_t mixed = seed + kGolden * epoch;
  return static_cast<std::uint32_t>(mixed % 254 + 1);
}

SwScSobolEpoch swScSobolForEpoch(std::uint64_t seed, std::uint64_t epoch) {
  const auto dim = static_cast<int>(epoch % sc::Sobol::kMaxDimension);
  const std::uint64_t skip =
      1 + (seed & 0xff) + 16 * (epoch / sc::Sobol::kMaxDimension);
  return SwScSobolEpoch{dim, skip};
}

std::uint32_t swScSfmtSeedForEpoch(std::uint64_t seed, std::uint64_t epoch) {
  // Unlike the LFSR's 254-seed space, the SFMT accepts any 32-bit seed, so
  // the golden stride can be finalized into a full-width value.  mix64 adds
  // one golden step before its SplitMix64 finalizer, so the stride starts
  // at epoch - 1.
  return static_cast<std::uint32_t>(
      reliability::mix64(seed + kGolden * (epoch - 1)));
}

std::unique_ptr<sc::RandomSource> swScConstantSource(const SwScConfig& config,
                                                     std::uint32_t threshold,
                                                     std::uint32_t ordinal) {
  // Each (threshold, ordinal) pair owns one slot of a seed space disjoint
  // from the epoch indices (the master seed is remixed with kConstSpace),
  // so constants are independent of every data epoch and of each other.
  const std::uint64_t slot = std::uint64_t{threshold} * 64 + ordinal;
  switch (config.sng) {
    case SwScSng::Lfsr:
      return std::make_unique<sc::Lfsr>(sc::Lfsr::paper8Bit(
          swScLfsrSeedForEpoch(config.seed ^ kConstSpace, slot)));
    case SwScSng::Sfmt:
      return std::make_unique<sc::Sfmt>(
          swScSfmtSeedForEpoch(config.seed ^ kConstSpace, slot));
    case SwScSng::Sobol: break;
  }
  // Keep the Sobol skip moderate: reset() replays `skip` points.
  const auto dim = static_cast<int>(slot % sc::Sobol::kMaxDimension);
  const std::uint64_t skip = 1 + ((config.seed ^ kConstSpace) & 0xff) +
                             16 * (1024 + slot / sc::Sobol::kMaxDimension);
  return std::make_unique<sc::Sobol>(dim, skip);
}

void SwScConstantPool::getInto(sc::Bitstream& dst, double p) {
  const std::uint32_t x = sc::quantizeProbability(p, 8);
  Bank& bank = pool_[x];
  if (bank.stamp != epochStamp_) {
    bank.stamp = epochStamp_;
    bank.used = 0;
  }
  const std::size_t k = bank.used++;
  while (bank.streams.size() <= k) {
    const auto src = swScConstantSource(
        config_, x, static_cast<std::uint32_t>(bank.streams.size()));
    bank.streams.push_back(sc::generateSbs(*src, x, 8, config_.streamLength));
  }
  dst = bank.streams[k];
}

void SwScConstantPool::onNewEpoch() { ++epochStamp_; }

// ---------------------------------------------------------------------------
// SwScGateBackend: the shared gate set, constants and accounting
// ---------------------------------------------------------------------------

SwScGateBackend::SwScGateBackend(const SwScConfig& config)
    : config_(config), constants_(config) {}

const char* SwScGateBackend::name() const {
  switch (config_.sng) {
    case SwScSng::Lfsr: return "SW-SC (LFSR)";
    case SwScSng::Sobol: return "SW-SC (Sobol)";
    case SwScSng::Sfmt: return "SW-SC (SFMT)";
  }
  return "SW-SC (?)";
}

void SwScGateBackend::encodeProbInto(ScValue& dst, double p) {
  constants_.getInto(dst.stream, p);
}

void SwScGateBackend::halfStreamInto(ScValue& dst) {
  encodeProbInto(dst, 0.5);
}

void SwScGateBackend::multiplyInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y) {
  ++opPasses_;
  sc::scMultiplyInto(dst.stream, x.stream, y.stream);
}

void SwScGateBackend::scaledAddInto(ScValue& dst, const ScValue& x,
                                    const ScValue& y, const ScValue& half) {
  ++opPasses_;
  sc::scScaledAddMuxInto(dst.stream, x.stream, y.stream, half.stream);
}

void SwScGateBackend::addApproxInto(ScValue& dst, const ScValue& x,
                                    const ScValue& y) {
  ++opPasses_;
  sc::scAddOrInto(dst.stream, x.stream, y.stream);
}

void SwScGateBackend::absSubInto(ScValue& dst, const ScValue& x,
                                 const ScValue& y) {
  ++opPasses_;
  sc::scAbsSubInto(dst.stream, x.stream, y.stream);
}

void SwScGateBackend::minimumInto(ScValue& dst, const ScValue& x,
                                  const ScValue& y) {
  ++opPasses_;
  sc::scMinInto(dst.stream, x.stream, y.stream);
}

void SwScGateBackend::maximumInto(ScValue& dst, const ScValue& x,
                                  const ScValue& y) {
  ++opPasses_;
  sc::scMaxInto(dst.stream, x.stream, y.stream);
}

void SwScGateBackend::majMuxInto(ScValue& dst, const ScValue& x,
                                 const ScValue& y, const ScValue& sel) {
  // The CMOS design uses an exact 2-to-1 MUX (sel = 1 selects x).
  ++opPasses_;
  sc::Bitstream::muxInto(dst.stream, x.stream, y.stream, sel.stream);
}

void SwScGateBackend::majMux4Into(ScValue& dst, const ScValue& i11,
                                  const ScValue& i12, const ScValue& i21,
                                  const ScValue& i22, const ScValue& sx,
                                  const ScValue& sy) {
  opPasses_ += 3;  // three serial MUX stages (the scMux4 tree, staged)
  sc::Bitstream::muxInto(tmpTop_, i12.stream, i11.stream, sy.stream);
  sc::Bitstream::muxInto(tmpBottom_, i22.stream, i21.stream, sy.stream);
  sc::Bitstream::muxInto(dst.stream, tmpBottom_, tmpTop_, sx.stream);
}

void SwScGateBackend::divideInto(ScValue& dst, const ScValue& num,
                                 const ScValue& den) {
  ++opPasses_;
  divideStreamsInto(dst.stream, num.stream, den.stream);
}

void SwScGateBackend::doBernsteinSelectInto(
    ScValue& dst, std::span<const ScValue> xCopies,
    std::span<const ScValue> coeffSelects) {
  sc::scBernsteinSelectInto(dst.stream,
                            borrowStreams(xCopies, copyPtrScratch_),
                            borrowStreams(coeffSelects, coeffPtrScratch_));
  // A (copies + coeffs - 1)-deep select network, one serial pass per level
  // (same charge as the in-memory MUX-tree realisation); charged after the
  // width checks so a rejected call cannot corrupt the counter.
  opPasses_ += xCopies.size() + coeffSelects.size() - 1;
}

void SwScGateBackend::decodePixelsInto(std::span<ScValue> values,
                                       std::span<std::uint8_t> out) {
  // log2(N)-bit output counter: popcount / N.
  requireSameSize(values.size(), out.size(),
                  "SwScGateBackend::decodePixelsInto");
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = img::Image::fromProb(values[i].stream.value());
  }
}

// ---------------------------------------------------------------------------
// SwScBackend: scalar stage-1 encode + serial CORDIV
// ---------------------------------------------------------------------------

SwScBackend::SwScBackend(const SwScConfig& config)
    : SwScGateBackend(config),
      lfsrSource_(sc::Lfsr::paper8Bit(1)),
      sobolSource_(0, 1),
      sfmtSource_(1) {
  newEpoch();
}

void SwScBackend::newEpoch() {
  ++epoch_;
  switch (config().sng) {
    case SwScSng::Lfsr:
      lfsrSource_.reseed(swScLfsrSeedForEpoch(config().seed, epoch_));
      epochSource_ = &lfsrSource_;
      break;
    case SwScSng::Sobol: {
      const SwScSobolEpoch p = swScSobolForEpoch(config().seed, epoch_);
      sobolSource_.reseat(p.dimension, p.skip);
      epochSource_ = &sobolSource_;
      break;
    }
    case SwScSng::Sfmt:
      sfmtSource_.reseed(swScSfmtSeedForEpoch(config().seed, epoch_));
      epochSource_ = &sfmtSource_;
      break;
  }
  SwScGateBackend::onNewEpoch();
}

void SwScBackend::refreshEpochCache() {
  if (epochCacheStamp_ == epoch_) return;
  // Restarting the source per stream yields maximal correlation within the
  // epoch — the software analogue of converting against shared TRNG planes.
  // Every stream of an epoch therefore replays the same draws, so the
  // comparator draws R_0..R_{N-1} are an epoch invariant: draw them once
  // (identical call sequence to one generateSbs pass) and let the packed
  // comparator evaluate each pixel word-level.  Forcing the portable mode
  // keeps this the CMOS-SC design point executed with sane instructions —
  // the AVX2 path remains the SwScSimd backend's own edge.
  const std::size_t n = config().streamLength;
  epochSource_->reset();
  epochBytes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    epochBytes_[i] = static_cast<std::uint8_t>(epochSource_->next(8));
  }
  epochPlanes_.assign(epochBytes_.data(), n, sc::SimdMode::Portable);
  epochCacheStamp_ = epoch_;
}

void SwScBackend::encodePixelsInto(std::span<const std::uint8_t> values,
                                   std::span<ScValue> out) {
  requireSameSize(values.size(), out.size(), "SwScBackend::encodePixelsInto");
  newEpoch();
  encodePixelsCorrelatedInto(values, out);
}

void SwScBackend::encodePixelsCorrelatedInto(
    std::span<const std::uint8_t> values, std::span<ScValue> out) {
  requireSameSize(values.size(), out.size(),
                  "SwScBackend::encodePixelsCorrelatedInto");
  refreshEpochCache();
  for (std::size_t i = 0; i < values.size(); ++i) {
    epochPlanes_.encode(swScPixelThreshold(values[i]), out[i].stream,
                        sc::SimdMode::Portable);
  }
}

void SwScBackend::divideStreamsInto(sc::Bitstream& dst,
                                    const sc::Bitstream& num,
                                    const sc::Bitstream& den) {
  sc::cordivDivideInto(dst, num, den);
}

}  // namespace aimsc::core
