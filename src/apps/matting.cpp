#include "apps/matting.hpp"

#include <vector>

#include "core/backend_reference.hpp"

namespace aimsc::apps {

MattingScene makeMattingScene(std::size_t w, std::size_t h, std::uint64_t seed) {
  const CompositingScene base = makeCompositingScene(w, h, seed);
  MattingScene scene;
  scene.background = base.background;
  scene.foreground = base.foreground;
  scene.trueAlpha = base.alpha;
  scene.composite = compositeReference(base);
  return scene;
}

void mattingKernelRows(const MattingFrames& scene, core::ScBackend& b,
                       core::StreamArena& arena, img::ImageSpan out,
                       std::size_t rowBegin, std::size_t rowEnd) {
  const std::size_t w = scene.composite.width();
  auto& irow = arena.bytes(w);
  auto& brow = arena.bytes(w);
  auto& frow = arena.bytes(w);
  auto& decoded = arena.bytes(w);
  auto& is = arena.batch(w);
  auto& bs = arena.batch(w);
  auto& fs = arena.batch(w);
  auto& quotients = arena.batch(w);
  core::ScValue& num = arena.value();
  core::ScValue& den = arena.value();
  for (std::size_t y = rowBegin; y < rowEnd; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      irow[x] = scene.composite.at(x, y);
      brow[x] = scene.background.at(x, y);
      frow[x] = scene.foreground.at(x, y);
    }
    // One epoch, three correlated batches: the CORDIV precondition.
    b.encodePixelsInto(irow, is);
    b.encodePixelsCorrelatedInto(brow, bs);
    b.encodePixelsCorrelatedInto(frow, fs);
    for (std::size_t x = 0; x < w; ++x) {
      b.absSubInto(num, is[x], bs[x]);
      b.absSubInto(den, fs[x], bs[x]);
      b.divideInto(quotients[x], num, den);
    }
    // CORDIV outputs exist as resistances; the ADC senses the column.
    b.decodePixelsStoredInto(quotients, decoded);
    for (std::size_t x = 0; x < w; ++x) out.at(x, y) = decoded[x];
  }
}

img::Image mattingKernel(const MattingFrames& scene, core::ScBackend& b) {
  img::Image out(scene.composite.width(), scene.composite.height());
  core::StreamArena arena;
  mattingKernelRows(scene, b, arena, out, 0, out.height());
  return out;
}

img::Image mattingReference(const MattingScene& scene) {
  core::ReferenceBackend b;
  return mattingKernel(scene, b);
}

img::Image blendWithAlpha(const MattingScene& scene, const img::Image& alpha) {
  img::Image out(scene.composite.width(), scene.composite.height());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double f = scene.foreground[i] / 255.0;
    const double b = scene.background[i] / 255.0;
    const double a = alpha[i] / 255.0;
    out[i] = img::Image::fromProb(f * a + b * (1.0 - a));
  }
  return out;
}

}  // namespace aimsc::apps
