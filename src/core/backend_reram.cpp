#include "core/backend_reram.hpp"

namespace aimsc::core {

namespace {

/// Points \p ptrs at the stream payloads of \p out: the Accelerator's batched
/// encode writes through borrowed destinations.
std::span<sc::Bitstream* const> borrowOut(std::span<ScValue> out,
                                          std::vector<sc::Bitstream*>& ptrs) {
  ptrs.resize(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) ptrs[i] = &out[i].stream;
  return ptrs;
}

}  // namespace

void ReramScBackend::encodePixelsInto(std::span<const std::uint8_t> values,
                                      std::span<ScValue> out) {
  requireSameSize(values.size(), out.size(),
                  "ReramScBackend::encodePixelsInto");
  acc_.encodePixelsInto(values, borrowOut(out, outPtrScratch_));
}

void ReramScBackend::encodePixelsCorrelatedInto(
    std::span<const std::uint8_t> values, std::span<ScValue> out) {
  requireSameSize(values.size(), out.size(),
                  "ReramScBackend::encodePixelsCorrelatedInto");
  acc_.encodePixelsCorrelatedInto(values, borrowOut(out, outPtrScratch_));
}

void ReramScBackend::encodeProbInto(ScValue& dst, double p) {
  acc_.encodeProbInto(dst.stream, p);
}

void ReramScBackend::halfStreamInto(ScValue& dst) {
  acc_.encodeProbInto(dst.stream, 0.5);
}

void ReramScBackend::multiplyInto(ScValue& dst, const ScValue& x,
                                  const ScValue& y) {
  acc_.ops().multiplyInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::scaledAddInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y, const ScValue& half) {
  acc_.ops().scaledAddInto(dst.stream, x.stream, y.stream, half.stream);
}

void ReramScBackend::addApproxInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y) {
  acc_.ops().addApproxInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::absSubInto(ScValue& dst, const ScValue& x,
                                const ScValue& y) {
  acc_.ops().absSubInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::minimumInto(ScValue& dst, const ScValue& x,
                                 const ScValue& y) {
  acc_.ops().minimumInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::maximumInto(ScValue& dst, const ScValue& x,
                                 const ScValue& y) {
  acc_.ops().maximumInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::majMuxInto(ScValue& dst, const ScValue& x,
                                const ScValue& y, const ScValue& sel) {
  acc_.ops().majMuxInto(dst.stream, x.stream, y.stream, sel.stream);
}

void ReramScBackend::majMux4Into(ScValue& dst, const ScValue& i11,
                                 const ScValue& i12, const ScValue& i21,
                                 const ScValue& i22, const ScValue& sx,
                                 const ScValue& sy) {
  acc_.ops().majMux4Into(dst.stream, i11.stream, i12.stream, i21.stream,
                         i22.stream, sx.stream, sy.stream);
}

void ReramScBackend::divideInto(ScValue& dst, const ScValue& num,
                                const ScValue& den) {
  acc_.ops().divideInto(dst.stream, num.stream, den.stream);
}

void ReramScBackend::doBernsteinSelectInto(
    ScValue& dst, std::span<const ScValue> xCopies,
    std::span<const ScValue> coeffSelects) {
  acc_.ops().bernsteinSelectInto(
      dst.stream, borrowStreams(xCopies, copyPtrScratch_),
      borrowStreams(coeffSelects, coeffPtrScratch_));
}

void ReramScBackend::decodePixelsInto(std::span<ScValue> values,
                                      std::span<std::uint8_t> out) {
  requireSameSize(values.size(), out.size(),
                  "ReramScBackend::decodePixelsInto");
  // Every stream is digitized in sequence through the mat's single ADC.
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = acc_.decodePixel(values[i].stream);
  }
}

void ReramScBackend::decodePixelsStoredInto(std::span<ScValue> values,
                                            std::span<std::uint8_t> out) {
  requireSameSize(values.size(), out.size(),
                  "ReramScBackend::decodePixelsStoredInto");
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = acc_.decodePixelStored(values[i].stream);
  }
}

}  // namespace aimsc::core
