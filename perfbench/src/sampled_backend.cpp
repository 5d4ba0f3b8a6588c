#include "sampled_backend.hpp"

#include <algorithm>

namespace perfbench {

using aimsc::core::ScValue;

double scaledEstimate(double sampledNs, std::uint64_t calls,
                      std::uint64_t sampled) {
  if (sampled == 0) return 0.0;
  return sampledNs * static_cast<double>(calls) / static_cast<double>(sampled);
}

namespace {

/// Cost of one back-to-back pair of clock reads (measured once), which the
/// decorator subtracts from every sample.
double clockOverheadNs() {
  static const double overhead = [] {
    double best = 1e9;
    for (int i = 0; i < 1000; ++i) {
      const Clock::time_point a = Clock::now();
      const Clock::time_point b = Clock::now();
      best = std::min(
          best, std::chrono::duration<double, std::nano>(b - a).count());
    }
    return best;
  }();
  return overhead;
}

}  // namespace

double StageTimes::estimatedNs(Stage s) const {
  const StageTally& t = (*this)[s];
  return scaledEstimate(t.sampledNs, t.calls, t.sampled);
}

StageTimes& StageTimes::operator+=(const StageTimes& o) {
  for (std::size_t i = 0; i < stage.size(); ++i) {
    stage[i].calls += o.stage[i].calls;
    stage[i].sampled += o.stage[i].sampled;
    stage[i].sampledNs += o.stage[i].sampledNs;
  }
  return *this;
}

SampledBackend::Probe::Probe(StageTally& tally, bool timed)
    : tally_(tally), timed_(timed) {
  ++tally_.calls;
  if (timed_) start_ = Clock::now();
}

SampledBackend::Probe::~Probe() {
  if (!timed_) return;
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start_).count();
  tally_.sampledNs += std::max(0.0, ns - clockOverheadNs());
  ++tally_.sampled;
}

SampledBackend::SampledBackend(aimsc::core::ScBackend& inner,
                               std::uint32_t every)
    : inner_(inner), every_(std::max<std::uint32_t>(every, 1)) {
  clockOverheadNs();  // calibrate before the first sample
}

// --- stage 1 ---------------------------------------------------------------

std::vector<ScValue> SampledBackend::encodePixels(Bytes values) {
  auto p = probe(Stage::Encode);
  return inner_.encodePixels(values);
}
std::vector<ScValue> SampledBackend::encodePixelsCorrelated(Bytes values) {
  auto p = probe(Stage::Encode);
  return inner_.encodePixelsCorrelated(values);
}
ScValue SampledBackend::encodeProb(double v) {
  auto p = probe(Stage::Encode);
  return inner_.encodeProb(v);
}
ScValue SampledBackend::halfStream() {
  auto p = probe(Stage::Encode);
  return inner_.halfStream();
}
ScValue SampledBackend::encodePixel(std::uint8_t v) {
  auto p = probe(Stage::Encode);
  return inner_.encodePixel(v);
}
ScValue SampledBackend::encodePixelCorrelated(std::uint8_t v) {
  auto p = probe(Stage::Encode);
  return inner_.encodePixelCorrelated(v);
}
std::vector<ScValue> SampledBackend::encodeCopies(std::uint8_t v,
                                                  std::size_t k) {
  auto p = probe(Stage::Encode);
  return inner_.encodeCopies(v, k);
}
void SampledBackend::encodePixelsInto(Bytes values, std::span<ScValue> out) {
  auto p = probe(Stage::Encode);
  inner_.encodePixelsInto(values, out);
}
void SampledBackend::encodePixelsCorrelatedInto(Bytes values,
                                                std::span<ScValue> out) {
  auto p = probe(Stage::Encode);
  inner_.encodePixelsCorrelatedInto(values, out);
}
void SampledBackend::encodeProbInto(ScValue& dst, double v) {
  auto p = probe(Stage::Encode);
  inner_.encodeProbInto(dst, v);
}
void SampledBackend::halfStreamInto(ScValue& dst) {
  auto p = probe(Stage::Encode);
  inner_.halfStreamInto(dst);
}
void SampledBackend::encodeCopiesInto(std::uint8_t v, std::span<ScValue> out) {
  auto p = probe(Stage::Encode);
  inner_.encodeCopiesInto(v, out);
}

// --- stage 2 ---------------------------------------------------------------

ScValue SampledBackend::multiply(const ScValue& x, const ScValue& y) {
  auto p = probe(Stage::Ops);
  return inner_.multiply(x, y);
}
ScValue SampledBackend::scaledAdd(const ScValue& x, const ScValue& y,
                                  const ScValue& half) {
  auto p = probe(Stage::Ops);
  return inner_.scaledAdd(x, y, half);
}
ScValue SampledBackend::addApprox(const ScValue& x, const ScValue& y) {
  auto p = probe(Stage::Ops);
  return inner_.addApprox(x, y);
}
ScValue SampledBackend::absSub(const ScValue& x, const ScValue& y) {
  auto p = probe(Stage::Ops);
  return inner_.absSub(x, y);
}
ScValue SampledBackend::minimum(const ScValue& x, const ScValue& y) {
  auto p = probe(Stage::Ops);
  return inner_.minimum(x, y);
}
ScValue SampledBackend::maximum(const ScValue& x, const ScValue& y) {
  auto p = probe(Stage::Ops);
  return inner_.maximum(x, y);
}
ScValue SampledBackend::majMux(const ScValue& x, const ScValue& y,
                               const ScValue& sel) {
  auto p = probe(Stage::Ops);
  return inner_.majMux(x, y, sel);
}
ScValue SampledBackend::majMux4(const ScValue& i11, const ScValue& i12,
                                const ScValue& i21, const ScValue& i22,
                                const ScValue& sx, const ScValue& sy) {
  auto p = probe(Stage::Ops);
  return inner_.majMux4(i11, i12, i21, i22, sx, sy);
}
ScValue SampledBackend::divide(const ScValue& num, const ScValue& den) {
  auto p = probe(Stage::Ops);
  return inner_.divide(num, den);
}
ScValue SampledBackend::doBernsteinSelect(
    std::span<const ScValue> xCopies, std::span<const ScValue> coeffSelects) {
  auto p = probe(Stage::Ops);
  return inner_.bernsteinSelect(xCopies, coeffSelects);
}
void SampledBackend::multiplyInto(ScValue& dst, const ScValue& x,
                                  const ScValue& y) {
  auto p = probe(Stage::Ops);
  inner_.multiplyInto(dst, x, y);
}
void SampledBackend::scaledAddInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y, const ScValue& half) {
  auto p = probe(Stage::Ops);
  inner_.scaledAddInto(dst, x, y, half);
}
void SampledBackend::addApproxInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y) {
  auto p = probe(Stage::Ops);
  inner_.addApproxInto(dst, x, y);
}
void SampledBackend::absSubInto(ScValue& dst, const ScValue& x,
                                const ScValue& y) {
  auto p = probe(Stage::Ops);
  inner_.absSubInto(dst, x, y);
}
void SampledBackend::minimumInto(ScValue& dst, const ScValue& x,
                                 const ScValue& y) {
  auto p = probe(Stage::Ops);
  inner_.minimumInto(dst, x, y);
}
void SampledBackend::maximumInto(ScValue& dst, const ScValue& x,
                                 const ScValue& y) {
  auto p = probe(Stage::Ops);
  inner_.maximumInto(dst, x, y);
}
void SampledBackend::majMuxInto(ScValue& dst, const ScValue& x,
                                const ScValue& y, const ScValue& sel) {
  auto p = probe(Stage::Ops);
  inner_.majMuxInto(dst, x, y, sel);
}
void SampledBackend::majMux4Into(ScValue& dst, const ScValue& i11,
                                 const ScValue& i12, const ScValue& i21,
                                 const ScValue& i22, const ScValue& sx,
                                 const ScValue& sy) {
  auto p = probe(Stage::Ops);
  inner_.majMux4Into(dst, i11, i12, i21, i22, sx, sy);
}
void SampledBackend::divideInto(ScValue& dst, const ScValue& num,
                                const ScValue& den) {
  auto p = probe(Stage::Ops);
  inner_.divideInto(dst, num, den);
}
void SampledBackend::doBernsteinSelectInto(
    ScValue& dst, std::span<const ScValue> xCopies,
    std::span<const ScValue> coeffSelects) {
  auto p = probe(Stage::Ops);
  inner_.bernsteinSelectInto(dst, xCopies, coeffSelects);
}

// --- stage 3 ---------------------------------------------------------------

std::vector<std::uint8_t> SampledBackend::decodePixels(
    std::span<ScValue> values) {
  auto p = probe(Stage::Decode);
  return inner_.decodePixels(values);
}
std::vector<std::uint8_t> SampledBackend::decodePixelsStored(
    std::span<ScValue> values) {
  auto p = probe(Stage::Decode);
  return inner_.decodePixelsStored(values);
}
void SampledBackend::decodePixelsInto(std::span<ScValue> values,
                                      std::span<std::uint8_t> out) {
  auto p = probe(Stage::Decode);
  inner_.decodePixelsInto(values, out);
}
void SampledBackend::decodePixelsStoredInto(std::span<ScValue> values,
                                            std::span<std::uint8_t> out) {
  auto p = probe(Stage::Decode);
  inner_.decodePixelsStoredInto(values, out);
}

}  // namespace perfbench
