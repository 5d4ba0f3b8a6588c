#include "apps/bilinear.hpp"

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/backend_reference.hpp"

namespace aimsc::apps {

SampleCoord mapCoord(std::size_t outIndex, std::size_t outSize,
                     std::size_t srcSize) {
  // Align-corners mapping: x_src = X * (srcSize-1) / (outSize-1).
  if (outSize < 2 || srcSize < 2) return SampleCoord{0, 0, 0};
  const double pos = static_cast<double>(outIndex) *
                     static_cast<double>(srcSize - 1) /
                     static_cast<double>(outSize - 1);
  auto i0 = static_cast<std::size_t>(pos);
  if (i0 >= srcSize - 1) i0 = srcSize - 2;
  const double frac = pos - static_cast<double>(i0);
  return SampleCoord{i0, i0 + 1,
                     static_cast<std::uint8_t>(std::lround(frac * 255.0))};
}

void upscaleKernelRows(img::ImageView src, std::size_t factor,
                       core::ScBackend& b, core::StreamArena& arena,
                       img::ImageSpan out, std::size_t rowBegin,
                       std::size_t rowEnd) {
  if (factor < 1) throw std::invalid_argument("upscale: bad factor");
  const std::size_t W = out.width();
  const std::size_t H = out.height();
  // Batch layout: the four neighbour planes stacked [i11 | i12 | i21 | i22]
  // so the whole family shares one epoch (each MAJ stage needs its data
  // inputs correlated); dx selects take a second epoch, dy a third.
  auto& data = arena.bytes(4 * W);
  auto& dxRow = arena.bytes(W);
  auto& decoded = arena.bytes(W);
  auto& ds = arena.batch(4 * W);
  auto& sxs = arena.batch(W);
  auto& blended = arena.batch(W);
  core::ScValue& sy = arena.value();
  for (std::size_t Y = rowBegin; Y < rowEnd; ++Y) {
    const SampleCoord cy = mapCoord(Y, H, src.height());
    for (std::size_t X = 0; X < W; ++X) {
      const SampleCoord cx = mapCoord(X, W, src.width());
      data[X] = src.at(cx.i0, cy.i0);
      data[W + X] = src.at(cx.i0, cy.i1);
      data[2 * W + X] = src.at(cx.i1, cy.i0);
      data[3 * W + X] = src.at(cx.i1, cy.i1);
      dxRow[X] = cx.frac;
    }
    b.encodePixelsInto(data, ds);
    b.encodePixelsInto(dxRow, sxs);
    // Row-constant dy select: a fresh single-element epoch.
    b.encodePixelsInto(std::span<const std::uint8_t>(&cy.frac, 1),
                       std::span<core::ScValue>(&sy, 1));
    for (std::size_t X = 0; X < W; ++X) {
      b.majMux4Into(blended[X], ds[X], ds[W + X], ds[2 * W + X],
                    ds[3 * W + X], sxs[X], sy);
    }
    b.decodePixelsInto(blended, decoded);
    for (std::size_t X = 0; X < W; ++X) out.at(X, Y) = decoded[X];
  }
}

img::Image upscaleKernel(img::ImageView src, std::size_t factor,
                         core::ScBackend& b) {
  if (factor < 1) throw std::invalid_argument("upscale: bad factor");
  img::Image out(src.width() * factor, src.height() * factor);
  core::StreamArena arena;
  upscaleKernelRows(src, factor, b, arena, out, 0, out.height());
  return out;
}

img::Image upscaleReference(img::ImageView src, std::size_t factor) {
  core::ReferenceBackend b;
  return upscaleKernel(src, factor, b);
}

}  // namespace aimsc::apps
