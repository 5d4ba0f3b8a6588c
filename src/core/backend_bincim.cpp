#include "core/backend_bincim.hpp"

#include <algorithm>
#include <cmath>

namespace aimsc::core {

namespace {

std::shared_ptr<const reram::FaultModel> faultModelFor(
    const BinaryCimConfig& config) {
  if (!config.deviceVariability) return nullptr;
  const std::uint64_t seed = config.seed ^ 0xb1f;
  if (config.faultModelProvider) {
    return config.faultModelProvider(config.device, seed,
                                     config.faultModelSamples);
  }
  return std::make_shared<const reram::FaultModel>(config.device, seed,
                                                   config.faultModelSamples);
}

}  // namespace

BinaryCimBackend::BinaryCimBackend(bincim::MagicEngine& engine)
    : engine_(&engine), pim_(engine) {}

BinaryCimBackend::BinaryCimBackend(const BinaryCimConfig& config)
    : faults_(faultModelFor(config)),
      ownedEngine_(std::make_unique<bincim::MagicEngine>(
          faults_.get(), config.seed ^ 0xe6, kBinaryCimFaultScale)),
      engine_(ownedEngine_.get()),
      pim_(*ownedEngine_) {
  engine_->setProtection(config.protection);
}

void BinaryCimBackend::encodePixelsInto(std::span<const std::uint8_t> values,
                                        std::span<ScValue> out) {
  // Binary CIM computes on the 8-bit words directly — no conversion stage.
  requireSameSize(values.size(), out.size(),
                  "BinaryCimBackend::encodePixelsInto");
  for (std::size_t i = 0; i < values.size(); ++i) out[i].word = values[i];
}

void BinaryCimBackend::encodePixelsCorrelatedInto(
    std::span<const std::uint8_t> values, std::span<ScValue> out) {
  encodePixelsInto(values, out);
}

void BinaryCimBackend::encodeProbInto(ScValue& dst, double p) {
  dst.word = static_cast<std::uint32_t>(
      std::lround(std::clamp(p, 0.0, 1.0) * 255.0));
}

// Every stage-2 form reads all of its operands before the single store to
// dst, so dst may alias an operand.

void BinaryCimBackend::multiplyInto(ScValue& dst, const ScValue& x,
                                    const ScValue& y) {
  // (x * y) / 255 with the wiring-shift /256 and +128 rounding term.
  const std::uint32_t t = pim_.mul(x.word, y.word, 8);
  const std::uint32_t rounded = pim_.add(t, 128, 16);
  dst.word = std::min<std::uint32_t>(rounded >> 8, 255);
}

void BinaryCimBackend::scaledAddInto(ScValue& dst, const ScValue& x,
                                     const ScValue& y,
                                     const ScValue& /*half*/) {
  // (x + y + 1) / 2 — the gate sequence of the legacy edge kernel.
  const std::uint32_t sum = pim_.add(x.word, y.word, 9);
  const std::uint32_t rounded = pim_.add(sum, 1, 10);
  dst.word = std::min<std::uint32_t>(rounded >> 1, 255);
}

void BinaryCimBackend::addApproxInto(ScValue& dst, const ScValue& x,
                                     const ScValue& y) {
  // x + y - x*y/255: the exact value the OR gate computes on independent
  // streams (rounded product, saturating subtract).
  const std::uint32_t sum = pim_.add(x.word, y.word, 9);
  const std::uint32_t t = pim_.mul(x.word, y.word, 8);
  const std::uint32_t prod = pim_.add(t, 128, 16) >> 8;
  const std::uint32_t v = pim_.subSaturating(sum, prod, 9);
  dst.word = std::min<std::uint32_t>(v, 255);
}

void BinaryCimBackend::absSubInto(ScValue& dst, const ScValue& x,
                                  const ScValue& y) {
  // Saturating subtraction both ways; one side is zero.
  const std::uint32_t a = pim_.subSaturating(x.word, y.word, 8);
  const std::uint32_t b = pim_.subSaturating(y.word, x.word, 8);
  dst.word = a | b;
}

void BinaryCimBackend::minimumInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y) {
  // min(x, y) = x - max(x - y, 0), two saturating subtractions.
  const std::uint32_t d = pim_.subSaturating(x.word, y.word, 8);
  dst.word = pim_.subSaturating(x.word, d, 8);
}

void BinaryCimBackend::maximumInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y) {
  // max(x, y) = y + max(x - y, 0); the sum never exceeds 255.
  const std::uint32_t d = pim_.subSaturating(x.word, y.word, 8);
  dst.word = pim_.add(y.word, d, 8);
}

void BinaryCimBackend::majMuxInto(ScValue& dst, const ScValue& x,
                                  const ScValue& y, const ScValue& sel) {
  // x*sel + y*(255-sel), /256 wiring shift after the +128 rounding term —
  // the exact gate sequence of the legacy compositing kernel.
  const std::uint32_t nsel = pim_.subSaturating(255, sel.word, 8);
  const std::uint32_t t1 = pim_.mul(x.word, sel.word, 8);
  const std::uint32_t t2 = pim_.mul(y.word, nsel, 8);
  const std::uint32_t sum = pim_.add(t1, t2, 16);  // 17-bit
  const std::uint32_t rounded = pim_.add(sum, 128, 17);
  const std::uint32_t v = rounded >> 8;
  dst.word = v > 255 ? 255 : v;
}

std::uint32_t BinaryCimBackend::lerp(std::uint32_t a, std::uint32_t b,
                                     std::uint32_t t) {
  // ((255 - t)*a + t*b + 128) >> 8 — operand order of the legacy bilinear
  // kernel (which weights its FIRST operand by 1-t, unlike majMux).
  const std::uint32_t nt = pim_.subSaturating(255, t, 8);
  const std::uint32_t t1 = pim_.mul(a, nt, 8);
  const std::uint32_t t2 = pim_.mul(b, t, 8);
  std::uint32_t sum = pim_.add(t1, t2, 16);
  sum = pim_.add(sum, 128, 17);
  const std::uint32_t v = sum >> 8;
  return v > 255 ? 255 : v;
}

void BinaryCimBackend::majMux4Into(ScValue& dst, const ScValue& i11,
                                   const ScValue& i12, const ScValue& i21,
                                   const ScValue& i22, const ScValue& sx,
                                   const ScValue& sy) {
  const std::uint32_t top = lerp(i11.word, i21.word, sx.word);
  const std::uint32_t bottom = lerp(i12.word, i22.word, sx.word);
  dst.word = lerp(top, bottom, sy.word);
}

void BinaryCimBackend::divideInto(ScValue& dst, const ScValue& num,
                                  const ScValue& den) {
  // alpha = num * 255 / den: 16-bit numerator, restoring division.
  const std::uint32_t num16 = pim_.mul(num.word, 255, 8);
  dst.word = pim_.div(num16, den.word, 16, 8);
}

void BinaryCimBackend::doBernsteinSelectInto(
    ScValue& dst, std::span<const ScValue> xCopies,
    std::span<const ScValue> coeffSelects) {
  // De Casteljau on the coefficient words: n rounds of 8-bit lerps at
  // t = x evaluate the degree-n Bernstein form exactly (modulo per-lerp
  // rounding), and every lerp runs through the MAGIC gate engine so the
  // cycle ledger charges the real integer decomposition.
  const std::uint32_t t = xCopies.front().word;
  bernScratch_.resize(coeffSelects.size());
  for (std::size_t i = 0; i < coeffSelects.size(); ++i) {
    bernScratch_[i] = coeffSelects[i].word;
  }
  for (std::size_t round = bernScratch_.size() - 1; round > 0; --round) {
    for (std::size_t k = 0; k < round; ++k) {
      bernScratch_[k] = lerp(bernScratch_[k], bernScratch_[k + 1], t);
    }
  }
  dst.word = bernScratch_[0];
}

void BinaryCimBackend::decodePixelsInto(std::span<ScValue> values,
                                        std::span<std::uint8_t> out) {
  requireSameSize(values.size(), out.size(),
                  "BinaryCimBackend::decodePixelsInto");
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] =
        static_cast<std::uint8_t>(std::min<std::uint32_t>(values[i].word, 255));
  }
}

}  // namespace aimsc::core
