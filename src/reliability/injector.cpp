#include "reliability/injector.hpp"

#include <algorithm>
#include <array>

namespace aimsc::reliability {

namespace {

/// Bits of the binary CIM integer word that carry fault sites: pixel math
/// runs in 8/16-bit precision, so the top half of the uint32 never holds
/// data and faulting it would model cells that do not exist.
constexpr std::size_t kWordBits = 16;

/// Site-salt separating the persistent stuck-at derivation from the
/// per-epoch transient draws (epoch coordinates 0/1 pick mask vs polarity).
constexpr std::uint64_t kStuckSalt = 0x57ac4a7ull;

}  // namespace

Domain faultDomainFor(core::DesignKind design) {
  switch (design) {
    case core::DesignKind::Reference: return Domain::Prob;
    case core::DesignKind::BinaryCim: return Domain::Word;
    case core::DesignKind::SwScLfsr:
    case core::DesignKind::SwScSobol:
    case core::DesignKind::SwScSfmt:
    case core::DesignKind::SwScSimd:
    case core::DesignKind::ReramSc: return Domain::Stream;
  }
  return Domain::Stream;
}

FaultedBackend::FaultedBackend(std::unique_ptr<core::ScBackend> inner,
                               Domain domain, const FaultPlan& plan,
                               std::uint64_t seed, std::uint64_t lane)
    : inner_(std::move(inner)),
      domain_(domain),
      plan_(plan),
      rng_(seed ^ kFaultSeedSalt, lane) {}

// --- fault mechanics ---------------------------------------------------------

double FaultedBackend::transientRate() const {
  double r = plan_.transientFlipRate;
  if (plan_.wearDriftPerMegaCycle > 0.0) {
    r += plan_.wearDriftPerMegaCycle *
         (static_cast<double>(wearCycles()) * 1e-6);
  }
  return r;
}

std::uint64_t FaultedBackend::wearCycles() const {
  const reram::EventCounts ev = inner_->events();
  std::uint64_t cycles = ev.rowWrites;
  if (cycles == 0) cycles = inner_->opCount();
  if (cycles == 0) cycles = rng_.epoch();  // reference: corrupted-value count
  return plan_.wearPreloadCycles + cycles;
}

void FaultedBackend::ensureStuckMask(std::size_t n) {
  if (plan_.stuckAtRate <= 0.0 || n == stuckLen_) return;
  stuckLen_ = n;
  const std::size_t words = (n + 63) / 64;
  stuckMask_.assign(words, 0);
  stuckValue_.assign(words, 0);
  for (std::size_t site = 0; site < n; ++site) {
    // Epoch coordinates 0 and 1 of the salted seed: mask membership and
    // stuck polarity.  Pure functions of (seed, lane, site) — the cell set
    // is stable for the lane's lifetime and independent across lanes.
    if (!faultSiteBernoulli(rng_.seed() ^ kStuckSalt, rng_.lane(), 0, site,
                            plan_.stuckAtRate)) {
      continue;
    }
    stuckMask_[site / 64] |= 1ull << (site % 64);
    if (faultSiteBernoulli(rng_.seed() ^ kStuckSalt, rng_.lane(), 1, site,
                           plan_.stuckAtHighFraction)) {
      stuckValue_[site / 64] |= 1ull << (site % 64);
    }
  }
  // Word-domain mask over the data-carrying bits.
  stuckMaskW_ = static_cast<std::uint32_t>(stuckMask_.empty() ? 0
                                                              : stuckMask_[0]) &
                ((1u << kWordBits) - 1u);
  stuckValueW_ =
      static_cast<std::uint32_t>(stuckValue_.empty() ? 0 : stuckValue_[0]) &
      stuckMaskW_;
}

void FaultedBackend::corruptStream(sc::Bitstream& s) {
  const std::uint64_t epoch = rng_.nextEpoch();
  const std::size_t n = s.size();
  if (n == 0) return;
  const std::uint64_t threshold = faultThreshold(transientRate());
  if (threshold != 0) {
    const std::uint64_t key = rng_.epochKey(epoch);
    std::vector<std::uint64_t>& words = s.mutableWords();
    for (std::size_t w = 0; w < words.size(); ++w) {
      const std::size_t base = w * 64;
      const std::size_t bits = std::min<std::size_t>(64, n - base);
      std::uint64_t flips = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        flips |= std::uint64_t{faultSiteDraw(key, base + b, threshold)} << b;
      }
      words[w] ^= flips;
    }
  }
  if (plan_.stuckAtRate > 0.0) {
    ensureStuckMask(n);
    std::vector<std::uint64_t>& words = s.mutableWords();
    for (std::size_t w = 0; w < words.size(); ++w) {
      words[w] = (words[w] & ~stuckMask_[w]) | stuckValue_[w];
    }
    s.clearTail();
  }
}

void FaultedBackend::corruptWord(std::uint32_t& w) {
  const std::uint64_t epoch = rng_.nextEpoch();
  const std::uint64_t threshold = faultThreshold(transientRate());
  if (threshold != 0) {
    const std::uint64_t key = rng_.epochKey(epoch);
    for (std::size_t site = 0; site < kWordBits; ++site) {
      if (faultSiteDraw(key, site, threshold)) w ^= 1u << site;
    }
  }
  if (plan_.stuckAtRate > 0.0) {
    ensureStuckMask(kWordBits);
    w = (w & ~stuckMaskW_) | stuckValueW_;
  }
}

void FaultedBackend::corruptProb(double& p) {
  // Expectation of the bit channel the stream substrates sample: symmetric
  // flips pull toward 0.5, stuck cells mix in their polarity fraction.
  rng_.nextEpoch();  // same epoch walk as the sampling domains
  const double r = std::min(transientRate(), 1.0);
  if (r > 0.0) p = p * (1.0 - r) + (1.0 - p) * r;
  const double s = std::min(plan_.stuckAtRate, 1.0);
  if (s > 0.0) p = p * (1.0 - s) + s * plan_.stuckAtHighFraction;
  p = std::clamp(p, 0.0, 1.0);
}

void FaultedBackend::corrupt(core::ScValue& v) {
  switch (domain_) {
    case Domain::Stream: corruptStream(v.stream); return;
    case Domain::Word: corruptWord(v.word); return;
    case Domain::Prob: corruptProb(v.prob); return;
  }
}

void FaultedBackend::corruptBatch(std::span<core::ScValue> batch) {
  for (core::ScValue& v : batch) corrupt(v);
}

// --- stage 1 -----------------------------------------------------------------
// Each form forwards to the inner substrate and then corrupts the values it
// produced, one fault epoch per value.

void FaultedBackend::encodePixelsInto(std::span<const std::uint8_t> values,
                                      std::span<core::ScValue> out) {
  inner_->encodePixelsInto(values, out);
  corruptBatch(out);
}

void FaultedBackend::encodePixelsCorrelatedInto(
    std::span<const std::uint8_t> values, std::span<core::ScValue> out) {
  inner_->encodePixelsCorrelatedInto(values, out);
  corruptBatch(out);
}

void FaultedBackend::encodeProbInto(core::ScValue& dst, double p) {
  inner_->encodeProbInto(dst, p);
  corrupt(dst);
}

void FaultedBackend::halfStreamInto(core::ScValue& dst) {
  inner_->halfStreamInto(dst);
  corrupt(dst);
}

void FaultedBackend::encodeCopiesInto(std::uint8_t v,
                                      std::span<core::ScValue> out) {
  // All copies first, then the corruption walk: the inner substrate's
  // ledger (the wear proxy) sees the whole batch before any fault draw.
  inner_->encodeCopiesInto(v, out);
  corruptBatch(out);
}

// --- stage 2 -----------------------------------------------------------------

void FaultedBackend::multiplyInto(core::ScValue& dst, const core::ScValue& x,
                                  const core::ScValue& y) {
  inner_->multiplyInto(dst, x, y);
  corrupt(dst);
}

void FaultedBackend::scaledAddInto(core::ScValue& dst, const core::ScValue& x,
                                   const core::ScValue& y,
                                   const core::ScValue& half) {
  inner_->scaledAddInto(dst, x, y, half);
  corrupt(dst);
}

void FaultedBackend::addApproxInto(core::ScValue& dst, const core::ScValue& x,
                                   const core::ScValue& y) {
  inner_->addApproxInto(dst, x, y);
  corrupt(dst);
}

void FaultedBackend::absSubInto(core::ScValue& dst, const core::ScValue& x,
                                const core::ScValue& y) {
  inner_->absSubInto(dst, x, y);
  corrupt(dst);
}

void FaultedBackend::minimumInto(core::ScValue& dst, const core::ScValue& x,
                                 const core::ScValue& y) {
  inner_->minimumInto(dst, x, y);
  corrupt(dst);
}

void FaultedBackend::maximumInto(core::ScValue& dst, const core::ScValue& x,
                                 const core::ScValue& y) {
  inner_->maximumInto(dst, x, y);
  corrupt(dst);
}

void FaultedBackend::majMuxInto(core::ScValue& dst, const core::ScValue& x,
                                const core::ScValue& y,
                                const core::ScValue& sel) {
  inner_->majMuxInto(dst, x, y, sel);
  corrupt(dst);
}

void FaultedBackend::majMux4Into(core::ScValue& dst, const core::ScValue& i11,
                                 const core::ScValue& i12,
                                 const core::ScValue& i21,
                                 const core::ScValue& i22,
                                 const core::ScValue& sx,
                                 const core::ScValue& sy) {
  inner_->majMux4Into(dst, i11, i12, i21, i22, sx, sy);
  corrupt(dst);
}

void FaultedBackend::divideInto(core::ScValue& dst, const core::ScValue& num,
                                const core::ScValue& den) {
  inner_->divideInto(dst, num, den);
  corrupt(dst);
}

void FaultedBackend::doBernsteinSelectInto(
    core::ScValue& dst, std::span<const core::ScValue> xCopies,
    std::span<const core::ScValue> coeffSelects) {
  inner_->bernsteinSelectInto(dst, xCopies, coeffSelects);
  corrupt(dst);
}

// --- stage 3: decode stays clean ---------------------------------------------

void FaultedBackend::decodePixelsInto(std::span<core::ScValue> values,
                                      std::span<std::uint8_t> out) {
  inner_->decodePixelsInto(values, out);
}

void FaultedBackend::decodePixelsStoredInto(std::span<core::ScValue> values,
                                            std::span<std::uint8_t> out) {
  inner_->decodePixelsStoredInto(values, out);
}

// --- factory -----------------------------------------------------------------

std::unique_ptr<core::ScBackend> wrapWithFaults(
    std::unique_ptr<core::ScBackend> inner, core::DesignKind design,
    const FaultPlan& plan, std::uint64_t seed, std::uint64_t lane) {
  if (!plan.anyStreamClass()) return inner;
  return std::make_unique<FaultedBackend>(std::move(inner),
                                          faultDomainFor(design), plan, seed,
                                          lane);
}

}  // namespace aimsc::reliability
