#include "core/backend_swsc_simd.hpp"

#include <array>

#include "sc/cordiv.hpp"
#include "sc/sng.hpp"

namespace aimsc::core {

namespace {

template <typename Bulk>
void refillLfsrBlockAs(const SwScConfig& config, std::uint64_t epoch,
                       std::size_t n, std::vector<std::uint8_t>& block) {
  std::array<std::uint8_t, Bulk::kLanes> seeds;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    seeds[k] = static_cast<std::uint8_t>(
        swScLfsrSeedForEpoch(config.seed, epoch + k));
  }
  block.resize(seeds.size() * n);
  Bulk bulk(seeds);
  bulk.generate(n, block.data());
}

}  // namespace

SwScSimdBackend::SwScSimdBackend(const SwScSimdConfig& config)
    : SwScGateBackend(config),
      simd_(config.simd),
      resolved_(sc::resolveSimd(config.simd)) {
  newEpoch();
}

const char* SwScSimdBackend::name() const { return "SW-SC (SIMD)"; }

void SwScSimdBackend::refillBlock(std::uint64_t epoch) {
  const std::size_t n = config().streamLength;
  if (config().sng == SwScSng::Lfsr) {
    // On 512-bit hosts the deep prefetch shape covers one AVX-512 register
    // per SWAR word pass; bit-neutral, since lane seeds derive per epoch.
    if (resolved_ == sc::SimdMode::Avx512) {
      blockLanes_ = sc::BulkLfsr8Wide::kLanes;
      refillLfsrBlockAs<sc::BulkLfsr8Wide>(config(), epoch, n, block_);
    } else {
      blockLanes_ = sc::BulkLfsr8::kLanes;
      refillLfsrBlockAs<sc::BulkLfsr8>(config(), epoch, n, block_);
    }
  } else {
    std::array<std::uint32_t, sc::BulkSfmt::kLanes> seeds;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      seeds[k] = swScSfmtSeedForEpoch(config().seed, epoch + k);
    }
    blockLanes_ = sc::BulkSfmt::kLanes;
    block_.resize(seeds.size() * n);
    sc::BulkSfmt bulk(seeds, simd_);
    bulk.generate(n, block_.data());
  }
  blockBase_ = epoch;
}

void SwScSimdBackend::newEpoch() {
  ++epoch_;
  const std::size_t n = config().streamLength;
  if (config().sng == SwScSng::Sobol) {
    const SwScSobolEpoch p = swScSobolForEpoch(config().seed, epoch_);
    sc::Sobol sobol(p.dimension, p.skip);
    sobolBytes_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      sobolBytes_[i] = static_cast<std::uint8_t>(sobol.next32() >> 24);
    }
    planes_.assign(sobolBytes_.data(), n, simd_);
  } else {
    if (blockBase_ == 0 || epoch_ < blockBase_ ||
        epoch_ >= blockBase_ + blockLanes_) {
      refillBlock(epoch_);
    }
    planes_.assign(&block_[(epoch_ - blockBase_) * n], n, simd_);
  }
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
