/// \file matting.hpp
/// \brief Image matting: alpha estimation alpha^ = (I - B) / (F - B)
///        (paper Fig. 3c).
///
/// The SC realisation uses *correlated* streams: encoding I, B, F against
/// the same random planes makes |I-B| (XOR) and |F-B| (XOR) correlated with
/// each other (for B <= I <= F the numerator stream is bitwise contained in
/// the denominator stream), which is exactly the precondition of CORDIV.
/// Following Table IV's protocol, quality is judged on the *re-blended*
/// composite: blend(F, B, alpha^) vs blend(F, B, alpha_true).
///
/// ONE backend-generic kernel (`mattingKernel`) serves every execution
/// substrate (per-design entry points: `makeBackend(design, ...)` +
/// `mattingKernel`, or `apps::runApp`).
#pragma once

#include <cstdint>

#include "apps/compositing.hpp"

namespace aimsc::apps {

/// Matting scene: observed composite + known background/foreground + truth.
struct MattingScene {
  img::Image composite;   ///< I (reference composite of the scene)
  img::Image background;  ///< B
  img::Image foreground;  ///< F
  img::Image trueAlpha;   ///< ground-truth alpha for evaluation
};

MattingScene makeMattingScene(std::size_t w, std::size_t h, std::uint64_t seed);

/// Zero-copy view bundle over the frames the matting kernel consumes
/// (truth stays behind for evaluation).  Implicit from an owning
/// `MattingScene`; the accelerator service builds one over client buffers.
struct MattingFrames {
  img::ImageView composite;   ///< I
  img::ImageView background;  ///< B
  img::ImageView foreground;  ///< F

  MattingFrames() = default;
  MattingFrames(const MattingScene& s)  // NOLINT: implicit by design
      : composite(s.composite), background(s.background),
        foreground(s.foreground) {}
  MattingFrames(img::ImageView i, img::ImageView b, img::ImageView f)
      : composite(i), background(b), foreground(f) {}
};

// --- the backend-generic kernel -------------------------------------------

/// Row-range form: estimates alpha for rows [rowBegin, rowEnd).  Per row
/// one epoch carries the correlated I/B/F triple (the CORDIV
/// precondition); the quotient is decoded through the resistance-mode
/// S-to-B path, batched per row.
///
/// FUSED: walks a fixed arena slot set through the *Into ops —
/// allocation-free when warm (the serial CORDIV recurrence itself writes
/// into a warm slot too).
void mattingKernelRows(const MattingFrames& scene, core::ScBackend& b,
                       core::StreamArena& arena, img::ImageSpan out,
                       std::size_t rowBegin, std::size_t rowEnd);

/// Whole-image form on a single backend (with a call-local arena).  The
/// tile-parallel form is `runTiled(framesOf(scene), exec)` (schedule.hpp).
img::Image mattingKernel(const MattingFrames& scene, core::ScBackend& b);

// --- reference (quality oracle) -------------------------------------------

/// Floating-point alpha estimate (ReferenceBackend; |.|-based ratio,
/// clamped to [0,1]; zero where F = B).
img::Image mattingReference(const MattingScene& scene);

/// Re-blend used by the Table IV evaluation.
img::Image blendWithAlpha(const MattingScene& scene, const img::Image& alpha);

}  // namespace aimsc::apps
