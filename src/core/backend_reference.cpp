#include "core/backend_reference.hpp"

#include <algorithm>
#include <cmath>

#include "img/image.hpp"
#include "sc/bernstein.hpp"

namespace aimsc::core {

void ReferenceBackend::encodePixelsInto(std::span<const std::uint8_t> values,
                                        std::span<ScValue> out) {
  requireSameSize(values.size(), out.size(),
                  "ReferenceBackend::encodePixelsInto");
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i].prob = static_cast<double>(values[i]) / 255.0;
  }
}

void ReferenceBackend::encodePixelsCorrelatedInto(
    std::span<const std::uint8_t> values, std::span<ScValue> out) {
  encodePixelsInto(values, out);  // exact values carry no randomness
}

void ReferenceBackend::multiplyInto(ScValue& dst, const ScValue& x,
                                    const ScValue& y) {
  dst.prob = x.prob * y.prob;
}

void ReferenceBackend::scaledAddInto(ScValue& dst, const ScValue& x,
                                     const ScValue& y,
                                     const ScValue& /*half*/) {
  dst.prob = (x.prob + y.prob) / 2.0;
}

void ReferenceBackend::addApproxInto(ScValue& dst, const ScValue& x,
                                     const ScValue& y) {
  // Exact probability of the OR gate on independent streams.
  dst.prob = x.prob + y.prob - x.prob * y.prob;
}

void ReferenceBackend::absSubInto(ScValue& dst, const ScValue& x,
                                  const ScValue& y) {
  dst.prob = std::abs(x.prob - y.prob);
}

void ReferenceBackend::minimumInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y) {
  dst.prob = std::min(x.prob, y.prob);
}

void ReferenceBackend::maximumInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y) {
  dst.prob = std::max(x.prob, y.prob);
}

void ReferenceBackend::majMuxInto(ScValue& dst, const ScValue& x,
                                  const ScValue& y, const ScValue& sel) {
  // Written exactly as the float compositing formula so the generic kernel
  // reproduces the historic reference output bit for bit.
  dst.prob = x.prob * sel.prob + y.prob * (1.0 - sel.prob);
}

void ReferenceBackend::majMux4Into(ScValue& dst, const ScValue& i11,
                                   const ScValue& i12, const ScValue& i21,
                                   const ScValue& i22, const ScValue& sx,
                                   const ScValue& sy) {
  // The expanded four-term bilinear blend (same form as upscaleReference).
  const double dx = sx.prob;
  const double dy = sy.prob;
  dst.prob = (1 - dx) * (1 - dy) * i11.prob + (1 - dx) * dy * i12.prob +
             dx * (1 - dy) * i21.prob + dx * dy * i22.prob;
}

void ReferenceBackend::divideInto(ScValue& dst, const ScValue& num,
                                  const ScValue& den) {
  // Alpha unspecified where the denominator vanishes (|F - B| < 1 LSB);
  // downstream blends are insensitive there.
  if (den.prob * 255.0 < 1.0) {
    dst.prob = 0.0;
    return;
  }
  dst.prob = std::clamp(num.prob / den.prob, 0.0, 1.0);
}

void ReferenceBackend::doBernsteinSelectInto(
    ScValue& dst, std::span<const ScValue> xCopies,
    std::span<const ScValue> coeffSelects) {
  coeffScratch_.resize(coeffSelects.size());
  for (std::size_t i = 0; i < coeffSelects.size(); ++i) {
    coeffScratch_[i] = coeffSelects[i].prob;
  }
  dst.prob = sc::bernsteinValue(coeffScratch_, xCopies.front().prob);
}

void ReferenceBackend::decodePixelsInto(std::span<ScValue> values,
                                        std::span<std::uint8_t> out) {
  requireSameSize(values.size(), out.size(),
                  "ReferenceBackend::decodePixelsInto");
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = img::Image::fromProb(values[i].prob);
  }
}

}  // namespace aimsc::core
