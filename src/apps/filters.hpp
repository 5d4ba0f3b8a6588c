/// \file filters.hpp
/// \brief Extension applications: the classic SC image-processing kernels
///        the paper's introduction motivates via Li et al. [5] — noise
///        smoothing (8-neighbour mean through a MAJ tree) and Roberts-cross
///        edge detection (correlated XOR + scaled add).
///
/// Both kernels compose the same stage-1/2/3 primitives as the paper's
/// three evaluation apps and are written once against `ScBackend`:
///  * smoothing: three levels of scaled addition (select = 0.5) — the pure
///    MAJ-tree data path;
///  * edge detection: |a - d| and |b - c| on correlated streams, combined
///    by one more scaled addition: the XOR window op at app level;
///  * gamma correction: Bernstein polynomial synthesis (Qian & Riedel)
///    through the backend-generic `bernsteinSelect` op — the former
///    ReRAM-only path, now running on every substrate.
#pragma once

#include "core/backend.hpp"
#include "core/stream_arena.hpp"
#include "img/image.hpp"

namespace aimsc::apps {

// --- the backend-generic kernels ------------------------------------------

/// Row-range smoothing: per row one epoch carries the 8 correlated
/// neighbour batches (scaled addition tolerates any input correlation);
/// the seven MAJ selects are seven fresh epochs shared across the row.
/// Rows are clamped to the interior; border pixels must be pre-filled.
///
/// FUSED: walks a fixed arena slot set through the *Into ops —
/// allocation-free when warm.  The whole-image forms below build a
/// call-local arena.
void smoothKernelRows(img::ImageView src, core::ScBackend& b,
                      core::StreamArena& arena, img::ImageSpan out,
                      std::size_t rowBegin, std::size_t rowEnd);

/// Whole-image smoothing (border pixels copy through).  The tile-parallel
/// forms of smoothing and gamma are `runTiled` (schedule.hpp); edge
/// detection, which is not an app, tiles its row form through
/// `TileExecutor::forEachTile`.
img::Image smoothKernel(img::ImageView src, core::ScBackend& b);

/// Row-range Roberts-cross edge magnitude
/// (|I(x,y)-I(x+1,y+1)| + |I(x+1,y)-I(x,y+1)|)/2: per row one epoch for the
/// correlated 4-pixel window family plus one fresh select epoch.  FUSED
/// (see smoothKernelRows).
void edgeKernelRows(img::ImageView src, core::ScBackend& b,
                    core::StreamArena& arena, img::ImageSpan out,
                    std::size_t rowBegin, std::size_t rowEnd);

/// Whole-image edge magnitude (last row/column are zero).
img::Image edgeKernel(img::ImageView src, core::ScBackend& b);

/// Row-range gamma correction v' = v^gamma via Bernstein synthesis
/// (sc/bernstein.hpp): per pixel, `degree` independent encodings of the
/// pixel (`encodeCopiesInto`) select among degree+1 coefficient streams
/// b_k = (k/n)^gamma through the backend's `bernsteinSelectInto` network.
/// FUSED (see smoothKernelRows).
void gammaKernelRows(img::ImageView src, double gamma, core::ScBackend& b,
                     core::StreamArena& arena, img::ImageSpan out,
                     std::size_t rowBegin, std::size_t rowEnd, int degree = 4);

/// Whole-image gamma correction on any backend.
img::Image gammaKernel(img::ImageView src, double gamma, core::ScBackend& b,
                       int degree = 4);

// --- references (quality oracles) -----------------------------------------

/// 8-neighbour mean smoothing (border pixels are copied through).
img::Image smoothReference(img::ImageView src);

/// Roberts-cross edge magnitude.
img::Image edgeReference(img::ImageView src);

/// Exact gamma correction v' = v^gamma.
img::Image gammaReference(img::ImageView src, double gamma);

}  // namespace aimsc::apps
