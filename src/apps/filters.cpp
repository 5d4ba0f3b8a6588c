#include "apps/filters.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/backend_reference.hpp"
#include "sc/bernstein.hpp"

namespace aimsc::apps {

namespace {

/// Offsets of the 8 neighbours, paired so the MAJ tree averages them as
/// ((a+b)/2 + (c+d)/2)/2 ... with three levels of scaled addition.
constexpr int kNeighbour[8][2] = {{-1, -1}, {1, 1}, {-1, 1}, {1, -1},
                                  {-1, 0},  {1, 0}, {0, -1}, {0, 1}};

}  // namespace

void smoothKernelRows(img::ImageView src, core::ScBackend& b,
                      core::StreamArena& arena, img::ImageSpan out,
                      std::size_t rowBegin, std::size_t rowEnd) {
  if (src.width() < 3 || src.height() < 3) return;
  const std::size_t iw = src.width() - 2;  // interior columns [1, w-1)
  auto& data = arena.bytes(8 * iw);
  auto& decoded = arena.bytes(iw);
  auto& ns = arena.batch(8 * iw);
  auto& means = arena.batch(iw);
  auto& half = arena.batch(7);
  auto& l1 = arena.batch(4);
  core::ScValue& l2a = arena.value();
  core::ScValue& l2b = arena.value();
  const std::size_t yBegin = std::max<std::size_t>(rowBegin, 1);
  const std::size_t yEnd = std::min(rowEnd, src.height() - 1);
  for (std::size_t y = yBegin; y < yEnd; ++y) {
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      for (int i = 0; i < 8; ++i) {
        data[static_cast<std::size_t>(i) * iw + (x - 1)] =
            src.at(x + static_cast<std::size_t>(kNeighbour[i][0]),
                   y + static_cast<std::size_t>(kNeighbour[i][1]));
      }
    }
    // One epoch for the 8-neighbour family (scaled addition tolerates any
    // input correlation); seven independent select epochs, each shared by
    // the whole row.
    b.encodePixelsInto(data, ns);
    for (auto& h : half) b.halfStreamInto(h);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      const std::size_t c = x - 1;
      for (std::size_t i = 0; i < 4; ++i) {
        b.scaledAddInto(l1[i], ns[2 * i * iw + c], ns[(2 * i + 1) * iw + c],
                        half[i]);
      }
      b.scaledAddInto(l2a, l1[0], l1[1], half[4]);
      b.scaledAddInto(l2b, l1[2], l1[3], half[5]);
      b.scaledAddInto(means[c], l2a, l2b, half[6]);
    }
    b.decodePixelsInto(means, decoded);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      out.at(x, y) = decoded[x - 1];
    }
  }
}

img::Image smoothKernel(img::ImageView src, core::ScBackend& b) {
  img::Image out = src.toImage();  // borders copy through
  core::StreamArena arena;
  smoothKernelRows(src, b, arena, out, 0, src.height());
  return out;
}

void edgeKernelRows(img::ImageView src, core::ScBackend& b,
                    core::StreamArena& arena, img::ImageSpan out,
                    std::size_t rowBegin, std::size_t rowEnd) {
  if (src.width() < 2 || src.height() < 2) return;
  const std::size_t iw = src.width() - 1;  // windows start at x in [0, w-1)
  auto& data = arena.bytes(4 * iw);
  auto& decoded = arena.bytes(iw);
  auto& ws = arena.batch(4 * iw);
  auto& mags = arena.batch(iw);
  core::ScValue& half = arena.value();
  core::ScValue& g1 = arena.value();
  core::ScValue& g2 = arena.value();
  const std::size_t yEnd = std::min(rowEnd, src.height() - 1);
  for (std::size_t y = rowBegin; y < yEnd; ++y) {
    for (std::size_t x = 0; x + 1 < src.width(); ++x) {
      data[x] = src.at(x, y);                  // a
      data[iw + x] = src.at(x + 1, y + 1);     // d
      data[2 * iw + x] = src.at(x + 1, y);     // b
      data[3 * iw + x] = src.at(x, y + 1);     // c
    }
    // One correlated family per row (XOR measures |.| exactly on
    // monotone streams) + one independent select epoch.
    b.encodePixelsInto(data, ws);
    b.halfStreamInto(half);
    for (std::size_t x = 0; x + 1 < src.width(); ++x) {
      b.absSubInto(g1, ws[x], ws[iw + x]);
      b.absSubInto(g2, ws[2 * iw + x], ws[3 * iw + x]);
      b.scaledAddInto(mags[x], g1, g2, half);
    }
    b.decodePixelsInto(mags, decoded);
    for (std::size_t x = 0; x + 1 < src.width(); ++x) out.at(x, y) = decoded[x];
  }
}

img::Image edgeKernel(img::ImageView src, core::ScBackend& b) {
  img::Image out(src.width(), src.height(), 0);
  core::StreamArena arena;
  edgeKernelRows(src, b, arena, out, 0, src.height());
  return out;
}

void gammaKernelRows(img::ImageView src, double gamma, core::ScBackend& b,
                     core::StreamArena& arena, img::ImageSpan out,
                     std::size_t rowBegin, std::size_t rowEnd, int degree) {
  const std::vector<double> coeffValues = sc::bernsteinCoefficientsOf(
      [gamma](double t) { return std::pow(t, gamma); }, degree);
  const std::size_t w = src.width();
  auto& xCopies = arena.batch(static_cast<std::size_t>(degree));
  auto& coeffs = arena.batch(coeffValues.size());
  core::ScValue& selected = arena.value();
  const std::size_t yEnd = std::min(rowEnd, src.height());
  for (std::size_t y = rowBegin; y < yEnd; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      // degree independent pixel encodings (one fresh epoch each) select
      // among degree+1 independent coefficient streams.
      b.encodeCopiesInto(src.at(x, y), xCopies);
      for (std::size_t k = 0; k < coeffValues.size(); ++k) {
        b.encodeProbInto(coeffs[k], coeffValues[k]);
      }
      b.bernsteinSelectInto(selected, xCopies, coeffs);
      std::uint8_t px = 0;
      b.decodePixelsInto(std::span<core::ScValue>(&selected, 1),
                         std::span<std::uint8_t>(&px, 1));
      out.at(x, y) = px;
    }
  }
}

img::Image gammaKernel(img::ImageView src, double gamma, core::ScBackend& b,
                       int degree) {
  img::Image out(src.width(), src.height());
  core::StreamArena arena;
  gammaKernelRows(src, gamma, b, arena, out, 0, src.height(), degree);
  return out;
}

img::Image smoothReference(img::ImageView src) {
  core::ReferenceBackend b;
  return smoothKernel(src, b);
}

img::Image edgeReference(img::ImageView src) {
  core::ReferenceBackend b;
  return edgeKernel(src, b);
}

img::Image gammaReference(img::ImageView src, double gamma) {
  img::Image out(src.width(), src.height());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = img::Image::fromProb(std::pow(src[i] / 255.0, gamma));
  }
  return out;
}

}  // namespace aimsc::apps
