#include "apps/compositing.hpp"

#include <algorithm>
#include <vector>

#include "core/backend_reference.hpp"
#include "img/synth.hpp"

namespace aimsc::apps {

CompositingScene makeCompositingScene(std::size_t w, std::size_t h,
                                      std::uint64_t seed) {
  CompositingScene scene;
  scene.background = img::naturalScene(w, h, seed);
  scene.foreground = img::foregroundObject(w, h, seed ^ 0xf0);
  scene.alpha = img::softDisk(w, h, static_cast<double>(w) * 0.55,
                              static_cast<double>(h) * 0.45,
                              static_cast<double>(std::min(w, h)) * 0.28,
                              static_cast<double>(std::min(w, h)) * 0.08);
  return scene;
}

void compositeKernelRows(const CompositingFrames& scene, core::ScBackend& b,
                         core::StreamArena& arena, img::ImageSpan out,
                         std::size_t rowBegin, std::size_t rowEnd) {
  const std::size_t w = scene.background.width();
  // Fixed arena slot set, acquired once per call and walked per row.
  auto& frow = arena.bytes(w);
  auto& brow = arena.bytes(w);
  auto& arow = arena.bytes(w);
  auto& decoded = arena.bytes(w);
  auto& fs = arena.batch(w);
  auto& bs = arena.batch(w);
  auto& as = arena.batch(w);
  auto& blended = arena.batch(w);
  for (std::size_t y = rowBegin; y < rowEnd; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      frow[x] = scene.foreground.at(x, y);
      brow[x] = scene.background.at(x, y);
      arow[x] = scene.alpha.at(x, y);
    }
    // Correlation control (Sec. III-A): F and B share one epoch — with
    // them correlated and alpha independent,
    //   P(MAJ(F,B,S)) = min(pF,pB) + pS * |pF - pB|,
    // which is exactly pS*pF + (1-pS)*pB whenever pF >= pB (and its
    // alpha-mirrored blend otherwise) — what makes the MUX->MAJ
    // substitution viable.  Alpha gets its own fresh epoch (the select
    // must be independent).
    b.encodePixelsInto(frow, fs);
    b.encodePixelsCorrelatedInto(brow, bs);
    b.encodePixelsInto(arow, as);
    for (std::size_t x = 0; x < w; ++x) {
      b.majMuxInto(blended[x], fs[x], bs[x], as[x]);
    }
    b.decodePixelsInto(blended, decoded);
    for (std::size_t x = 0; x < w; ++x) out.at(x, y) = decoded[x];
  }
}

img::Image compositeKernel(const CompositingFrames& scene, core::ScBackend& b) {
  img::Image out(scene.background.width(), scene.background.height());
  core::StreamArena arena;
  compositeKernelRows(scene, b, arena, out, 0, out.height());
  return out;
}

img::Image compositeReference(const CompositingScene& scene) {
  core::ReferenceBackend b;
  return compositeKernel(scene, b);
}

}  // namespace aimsc::apps
