/// \file fault_rng.hpp
/// \brief Counter-based fault randomness: every draw is a pure function of
///        `(seed, lane, epoch, site)`.
///
/// The determinism contract of the tile engine (docs/ARCHITECTURE.md) says a
/// tiled run is bit-identical for any worker-thread count because every
/// lane's randomness advances in a schedule-independent sequence.  Fault
/// injection must satisfy the same contract, so instead of a stateful
/// generator whose draws depend on global call order, each fault decision
/// hashes its full coordinates:
///
///   * `seed`  — the run's master fault seed;
///   * `lane`  — the tile-executor lane (replica runs shift the seed);
///   * `epoch` — a per-lane injection counter, advanced once per corrupted
///               stream/word (lane-pinned tiles make the sequence
///               schedule-independent);
///   * `site`  — the physical position inside the value: a stream bit
///               column, a binary word bit, or a stuck-at cell index.
///
/// Two runs with the same plan and seed therefore flip exactly the same
/// bits, whether they execute on 1 thread or 8, and a lane's draws never
/// depend on what other lanes did.  The mixer is the SplitMix64 finalizer
/// (Steele et al.), chained once per coordinate; the first three links are
/// the same for every site of an epoch, so a per-bit walk mixes once per
/// site (faultEpochKey, faultSiteDraw).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace aimsc::reliability {

/// SplitMix64 finalizer: invertible 64-bit mix with full avalanche.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The first three links of the site-key chain, shared by every site of
/// one epoch.
constexpr std::uint64_t faultEpochKey(std::uint64_t seed, std::uint64_t lane,
                                      std::uint64_t epoch) {
  return mix64(mix64(mix64(seed) ^ lane) ^ epoch);
}

/// The fault-site key: coordinates chained through the mixer so every
/// (seed, lane, epoch, site) tuple lands in an independent 64-bit stream.
constexpr std::uint64_t faultSiteKey(std::uint64_t seed, std::uint64_t lane,
                                     std::uint64_t epoch, std::uint64_t site) {
  return mix64(faultEpochKey(seed, lane, epoch) ^ site);
}

/// Uniform double in [0, 1) from a site key (53 mantissa bits).
constexpr double faultSiteUniform(std::uint64_t seed, std::uint64_t lane,
                                  std::uint64_t epoch, std::uint64_t site) {
  return static_cast<double>(faultSiteKey(seed, lane, epoch, site) >> 11) *
         0x1.0p-53;
}

/// Bernoulli(p) draw for one fault site.
constexpr bool faultSiteBernoulli(std::uint64_t seed, std::uint64_t lane,
                                  std::uint64_t epoch, std::uint64_t site,
                                  double p) {
  return p > 0.0 && faultSiteUniform(seed, lane, epoch, site) < p;
}

/// faultSiteBernoulli's decision as an integer compare: a site draws true
/// when (key >> 11) < faultThreshold(p), since k / 2^53 < p exactly when
/// k < ceil(p * 2^53).  p <= 0 or NaN gives 0 (never), p >= 1 gives 2^53
/// (always).
inline std::uint64_t faultThreshold(double p) {
  if (!(p > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::ceil(std::min(p, 1.0) * 0x1.0p53));
}

/// The draw at \p site of the epoch keyed \p epochKey (faultEpochKey),
/// against \p threshold (faultThreshold): equals faultSiteBernoulli.
constexpr bool faultSiteDraw(std::uint64_t epochKey, std::uint64_t site,
                             std::uint64_t threshold) {
  return (mix64(epochKey ^ site) >> 11) < threshold;
}

/// Per-lane fault coordinate tracker: binds (seed, lane) and advances the
/// epoch counter once per corrupted value.  Draws remain pure functions of
/// the coordinates — the object only carries the counter.
class FaultRng {
 public:
  FaultRng(std::uint64_t seed, std::uint64_t lane) : seed_(seed), lane_(lane) {}

  /// Opens the next injection epoch and returns its ordinal.
  std::uint64_t nextEpoch() { return epoch_++; }

  std::uint64_t seed() const { return seed_; }
  std::uint64_t lane() const { return lane_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Key of epoch \p epoch's site draws (faultSiteDraw).
  std::uint64_t epochKey(std::uint64_t epoch) const {
    return faultEpochKey(seed_, lane_, epoch);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t lane_;
  std::uint64_t epoch_ = 0;
};

}  // namespace aimsc::reliability
