#include "apps/morphology.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "apps/schedule.hpp"
#include "core/backend_reference.hpp"

namespace aimsc::apps {

namespace {

/// The 3×3 window, centre first (the fold's seed), then the 8 neighbours.
constexpr int kWindow[9][2] = {{0, 0},  {-1, -1}, {0, -1}, {1, -1}, {-1, 0},
                               {1, 0},  {-1, 1},  {0, 1},  {1, 1}};

/// Shared row-range form of erosion/dilation: one epoch per row carries the
/// correlated 9-plane window family (batch layout [plane0 | plane1 | ...]),
/// folded by an 8-deep `minimum`/`maximum` chain.  On monotone correlated
/// streams each AND/OR step yields exactly the running window min/max, so
/// the chain is exact up to decode noise.  The fold runs IN PLACE on the
/// output slot (the *Into ops allow destination/operand aliasing), so a
/// warm arena row is allocation-free.
template <typename FoldOp>
void morphKernelRows(img::ImageView src, core::ScBackend& b,
                     core::StreamArena& arena, img::ImageSpan out,
                     std::size_t rowBegin, std::size_t rowEnd, FoldOp&& fold) {
  if (src.width() < 3 || src.height() < 3) return;
  const std::size_t iw = src.width() - 2;  // interior columns [1, w-1)
  auto& data = arena.bytes(9 * iw);
  auto& decoded = arena.bytes(iw);
  auto& ws = arena.batch(9 * iw);
  auto& folded = arena.batch(iw);
  const std::size_t yBegin = std::max<std::size_t>(rowBegin, 1);
  const std::size_t yEnd = std::min(rowEnd, src.height() - 1);
  for (std::size_t y = yBegin; y < yEnd; ++y) {
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      for (int i = 0; i < 9; ++i) {
        data[static_cast<std::size_t>(i) * iw + (x - 1)] =
            src.at(x + static_cast<std::size_t>(kWindow[i][0]),
                   y + static_cast<std::size_t>(kWindow[i][1]));
      }
    }
    b.encodePixelsInto(data, ws);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      const std::size_t c = x - 1;
      folded[c] = ws[c];
      for (std::size_t i = 1; i < 9; ++i) {
        fold(b, folded[c], folded[c], ws[i * iw + c]);
      }
    }
    b.decodePixelsInto(folded, decoded);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      out.at(x, y) = decoded[x - 1];
    }
  }
}

const auto kMinFold = [](core::ScBackend& b, core::ScValue& dst,
                         const core::ScValue& a, const core::ScValue& v) {
  b.minimumInto(dst, a, v);
};
const auto kMaxFold = [](core::ScBackend& b, core::ScValue& dst,
                         const core::ScValue& a, const core::ScValue& v) {
  b.maximumInto(dst, a, v);
};

template <typename RowsFn>
img::Image wholeImage(img::ImageView src, RowsFn&& rows) {
  img::Image out = src.toImage();  // borders copy through
  core::StreamArena arena;
  rows(arena, out, std::size_t{0}, src.height());
  return out;
}

/// Integer reference fold over the 3×3 window.
template <typename Fold>
img::Image morphReference(img::ImageView src, Fold&& fold) {
  img::Image out = src.toImage();
  if (src.width() < 3 || src.height() < 3) return out;
  for (std::size_t y = 1; y + 1 < src.height(); ++y) {
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      std::uint8_t acc = src.at(x, y);
      for (int i = 1; i < 9; ++i) {
        acc = fold(acc, src.at(x + static_cast<std::size_t>(kWindow[i][0]),
                               y + static_cast<std::size_t>(kWindow[i][1])));
      }
      out.at(x, y) = acc;
    }
  }
  return out;
}

}  // namespace

void erodeKernelRows(img::ImageView src, core::ScBackend& b,
                     core::StreamArena& arena, img::ImageSpan out,
                     std::size_t rowBegin, std::size_t rowEnd) {
  morphKernelRows(src, b, arena, out, rowBegin, rowEnd, kMinFold);
}

void dilateKernelRows(img::ImageView src, core::ScBackend& b,
                      core::StreamArena& arena, img::ImageSpan out,
                      std::size_t rowBegin, std::size_t rowEnd) {
  morphKernelRows(src, b, arena, out, rowBegin, rowEnd, kMaxFold);
}

img::Image erodeKernel(img::ImageView src, core::ScBackend& b) {
  return wholeImage(src, [&](core::StreamArena& arena, img::ImageSpan out,
                             std::size_t r0, std::size_t r1) {
    erodeKernelRows(src, b, arena, out, r0, r1);
  });
}

img::Image dilateKernel(img::ImageView src, core::ScBackend& b) {
  return wholeImage(src, [&](core::StreamArena& arena, img::ImageSpan out,
                             std::size_t r0, std::size_t r1) {
    dilateKernelRows(src, b, arena, out, r0, r1);
  });
}

img::Image openKernel(img::ImageView src, core::ScBackend& b) {
  StagedRun run(framesOf(AppKind::Morphology, src));
  core::StreamArena arena;
  for (std::size_t s = 0; s < run.stages(); ++s) {
    arena.reset();
    run.stage(s)(b, arena, 0, run.height());
  }
  return std::move(run.output());
}

img::Image erodeReference(img::ImageView src) {
  return morphReference(
      src, [](std::uint8_t a, std::uint8_t v) { return std::min(a, v); });
}

img::Image dilateReference(img::ImageView src) {
  return morphReference(
      src, [](std::uint8_t a, std::uint8_t v) { return std::max(a, v); });
}

img::Image openReference(img::ImageView src) {
  core::ReferenceBackend b;
  return openKernel(src, b);
}

img::Image closeReference(img::ImageView src) {
  return erodeReference(dilateReference(src));
}

}  // namespace aimsc::apps
