#include "core/backend_swsc_simd.hpp"

#include <array>

#include "sc/cordiv.hpp"
#include "sc/sng.hpp"

namespace aimsc::core {

SwScSimdBackend::SwScSimdBackend(const SwScSimdConfig& config)
    : SwScGateBackend(config), simd_(config.simd) {
  newEpoch();
}

void SwScSimdBackend::newEpoch() {
  ++epoch_;
  const std::size_t n = config().streamLength;
  epochBytes_.resize(n);
  const std::uint8_t* draws = epochBytes_.data();
  switch (config().sng) {
    case SwScSng::Lfsr:
      sc::paperLfsrDraws(static_cast<std::uint8_t>(
                             swScLfsrSeedForEpoch(config().seed, epoch_)),
                         n, epochBytes_.data());
      break;
    case SwScSng::Sobol: {
      const SwScSobolEpoch p = swScSobolForEpoch(config().seed, epoch_);
      sc::Sobol sobol(p.dimension, p.skip);
      for (std::size_t i = 0; i < n; ++i) {
        epochBytes_[i] = static_cast<std::uint8_t>(sobol.next32() >> 24);
      }
      break;
    }
    case SwScSng::Sfmt: {
      // Epochs count up from 1, so every kLanes-th one opens a new block.
      const std::size_t lane = (epoch_ - 1) % sc::BulkSfmt::kLanes;
      if (lane == 0) {
        std::array<std::uint32_t, sc::BulkSfmt::kLanes> seeds;
        for (std::size_t k = 0; k < seeds.size(); ++k) {
          seeds[k] = swScSfmtSeedForEpoch(config().seed, epoch_ + k);
        }
        sfmtBlock_.resize(seeds.size() * n);
        sc::BulkSfmt bulk(seeds, simd_);
        bulk.generate(n, sfmtBlock_.data());
      }
      draws = &sfmtBlock_[lane * n];
      break;
    }
  }
  planes_.assign(draws, n, simd_);
  SwScGateBackend::onNewEpoch();
}

void SwScSimdBackend::encodePixelsInto(std::span<const std::uint8_t> values,
                                       std::span<ScValue> out) {
  requireSameSize(values.size(), out.size(),
                  "SwScSimdBackend::encodePixelsInto");
  newEpoch();
  encodePixelsCorrelatedInto(values, out);
}

void SwScSimdBackend::encodePixelsCorrelatedInto(
    std::span<const std::uint8_t> values, std::span<ScValue> out) {
  requireSameSize(values.size(), out.size(),
                  "SwScSimdBackend::encodePixelsCorrelatedInto");
  // Thresholds come from the table shared with the scalar backend
  // (swScPixelThreshold), so the two engines cannot drift in quantization.
  for (std::size_t i = 0; i < values.size(); ++i) {
    planes_.encode(swScPixelThreshold(values[i]), out[i].stream, simd_);
  }
}

void SwScSimdBackend::divideStreamsInto(sc::Bitstream& dst,
                                        const sc::Bitstream& num,
                                        const sc::Bitstream& den) {
  sc::cordivDivideWordLevelInto(dst, num, den);
}

}  // namespace aimsc::core
