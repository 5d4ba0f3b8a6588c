/// \file morphology.hpp
/// \brief Grayscale morphology — 3×3 erosion/dilation and the open/close
///        compositions — the workload family unlocked by promoting
///        `minimum`/`maximum` into the `ScBackend` vocabulary.
///
/// In the SC domain a 3×3 min (erosion) is an AND tree over a *correlated*
/// 9-stream family and a 3×3 max (dilation) the matching OR tree: encoding
/// the whole window against one randomness epoch makes every stream the
/// monotone comparator image of its pixel value, so the AND/OR chains
/// compute the exact window min/max up to decode noise (Sec. II-B
/// correlation control, same precondition as XOR subtraction).
///
/// Opening (erode, then dilate) composes two full passes.  The pass order
/// lives in the app schedule (schedule.hpp), which runs the opening on a
/// lane fleet as two stages with a full barrier between, so the composition
/// inherits the thread-count-invariant determinism contract.
#pragma once

#include "core/backend.hpp"
#include "core/stream_arena.hpp"
#include "img/image.hpp"

namespace aimsc::apps {

// --- the backend-generic kernels ------------------------------------------

/// Row-range 3×3 erosion (window minimum): per row one epoch carries the
/// correlated 9-neighbour family, folded by a `minimum` chain.  Rows clamp
/// to the interior; border pixels must be pre-filled.
///
/// FUSED: the fold runs in place on a fixed arena slot set through the
/// *Into ops (dst aliasing its first operand) — allocation-free when warm.
void erodeKernelRows(img::ImageView src, core::ScBackend& b,
                     core::StreamArena& arena, img::ImageSpan out,
                     std::size_t rowBegin, std::size_t rowEnd);

/// Row-range 3×3 dilation (window maximum): the mirrored `maximum` chain.
void dilateKernelRows(img::ImageView src, core::ScBackend& b,
                      core::StreamArena& arena, img::ImageSpan out,
                      std::size_t rowBegin, std::size_t rowEnd);

/// Whole-image erosion / dilation (border pixels copy through; call-local
/// arena).
img::Image erodeKernel(img::ImageView src, core::ScBackend& b);
img::Image dilateKernel(img::ImageView src, core::ScBackend& b);

/// Morphological opening (dilate(erode(src))) on a single backend: the
/// morphology schedule's two stages, each over the whole image.  The
/// tile-parallel form is `runTiled(framesOf(AppKind::Morphology, src),
/// exec)` (schedule.hpp).
img::Image openKernel(img::ImageView src, core::ScBackend& b);

// --- integer references (quality oracles) ---------------------------------

/// Exact integer window min / max (border pixels copy through).
img::Image erodeReference(img::ImageView src);
img::Image dilateReference(img::ImageView src);

/// Exact opening: the opening kernel on the floating-point ReferenceBackend,
/// whose window min/max are exact.
img::Image openReference(img::ImageView src);

/// Exact closing: integer dilation, then integer erosion.
img::Image closeReference(img::ImageView src);

}  // namespace aimsc::apps
