/// \file bilinear.hpp
/// \brief Bilinear interpolation up-scaling (paper Fig. 3b).
///
/// Each output pixel blends its four source neighbours weighted by the
/// fractional distances (dx, dy) — a 4-to-1 MUX in the SC domain with the
/// dx/dy streams on the select ports; the in-memory variant uses a tree of
/// three MAJ cycles.
///
/// ONE backend-generic kernel (`upscaleKernel`) serves every execution
/// substrate through the `ScBackend` interface (per-design entry points:
/// `makeBackend(design, ...)` + `upscaleKernel`, or `apps::runApp`).
#pragma once

#include <cstdint>

#include "core/backend.hpp"
#include "core/stream_arena.hpp"
#include "img/image.hpp"

namespace aimsc::apps {

/// Shared source-coordinate mapping: output X -> source coordinate
/// (integer base index and 8-bit fractional weight).
struct SampleCoord {
  std::size_t i0;
  std::size_t i1;
  std::uint8_t frac;  ///< 0..255 weight of i1
};
SampleCoord mapCoord(std::size_t outIndex, std::size_t outSize,
                     std::size_t srcSize);

// --- the backend-generic kernel -------------------------------------------

/// Row-range form: upscales output rows [rowBegin, rowEnd) into \p out
/// (whose dimensions are src * factor).  Per row one epoch carries the four
/// correlated source streams (each MAJ stage needs its data inputs
/// correlated), one epoch the dx selects and one the row-constant dy
/// select; decode is batched per row.
///
/// FUSED: walks a fixed arena slot set through the *Into ops —
/// allocation-free when warm.
void upscaleKernelRows(img::ImageView src, std::size_t factor,
                       core::ScBackend& b, core::StreamArena& arena,
                       img::ImageSpan out, std::size_t rowBegin,
                       std::size_t rowEnd);

/// Whole-image form on a single backend (with a call-local arena).  The
/// tile-parallel form is `runTiled` (schedule.hpp).
img::Image upscaleKernel(img::ImageView src, std::size_t factor,
                         core::ScBackend& b);

// --- reference (quality oracle) -------------------------------------------

/// Floating-point reference up-scaling by integer \p factor.
img::Image upscaleReference(img::ImageView src, std::size_t factor);

}  // namespace aimsc::apps
