/// \file compositing.hpp
/// \brief Image compositing C = F*alpha + B*(1-alpha) (paper Fig. 3a).
///
/// In the SC domain the compositing formula is a 2-to-1 MUX with the alpha
/// stream on the select input; the in-memory design approximates the MUX
/// with a single MAJ scouting-logic cycle.
///
/// ONE backend-generic kernel (`compositeKernel`) serves every execution
/// substrate through the `ScBackend` interface (per-design entry points:
/// `makeBackend(design, ...)` + `compositeKernel`, or `apps::runApp`).
#pragma once

#include <cstdint>

#include "core/backend.hpp"
#include "core/stream_arena.hpp"
#include "img/image.hpp"

namespace aimsc::apps {

/// Scene bundle for compositing / matting workloads.
struct CompositingScene {
  img::Image background;
  img::Image foreground;
  img::Image alpha;
};

/// Procedurally generates a scene (textured background, bright foreground
/// object, soft-edged alpha matte).
CompositingScene makeCompositingScene(std::size_t w, std::size_t h,
                                      std::uint64_t seed);

/// Zero-copy view bundle over the three compositing frames: what the
/// kernels actually consume.  Implicit from an owning `CompositingScene`;
/// the accelerator service builds one straight over client buffers, so a
/// queued frame is never copied on its way into the kernels.
struct CompositingFrames {
  img::ImageView background;
  img::ImageView foreground;
  img::ImageView alpha;

  CompositingFrames() = default;
  CompositingFrames(const CompositingScene& s)  // NOLINT: implicit by design
      : background(s.background), foreground(s.foreground), alpha(s.alpha) {}
  CompositingFrames(img::ImageView bg, img::ImageView fg, img::ImageView a)
      : background(bg), foreground(fg), alpha(a) {}
};

// --- the backend-generic kernel -------------------------------------------

/// Row-range form: composites rows [rowBegin, rowEnd) into \p out.  Per row
/// one randomness epoch carries the correlated F/B pair (MAJ ~ MUX needs
/// them correlated, Sec. III-A) and one fresh epoch the alpha selects;
/// decode is batched per row.
///
/// FUSED: the row loop walks a fixed set of \p arena slots through the
/// backend's destination-passing *Into ops — zero heap traffic once the
/// arena is warm.
void compositeKernelRows(const CompositingFrames& scene, core::ScBackend& b,
                         core::StreamArena& arena, img::ImageSpan out,
                         std::size_t rowBegin, std::size_t rowEnd);

/// Whole-image form on a single backend (with a call-local arena).  The
/// tile-parallel form is `runTiled(framesOf(scene), exec)` (schedule.hpp).
img::Image compositeKernel(const CompositingFrames& scene, core::ScBackend& b);

// --- reference (quality oracle) -------------------------------------------

/// Floating point (ReferenceBackend) — the Table IV comparison baseline.
img::Image compositeReference(const CompositingScene& scene);

}  // namespace aimsc::apps
