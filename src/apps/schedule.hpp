/// \file schedule.hpp
/// \brief The per-app stage schedule: the one definition of how an app's
///        frames become output bytes on a lane fleet.
///
/// Every executor drives lanes through this file: `apps::runApp` (through
/// `runTiled`), the service's shared worker pool and the shard worker.  An
/// app is a short sequence of stages.  Stage 0 reads the app's frames and
/// writes a staging image; each later stage starts from a copy of the
/// previous stage's image (border pixels pass through) and reads that
/// image as its source.  Every lane finishes stage s before any lane starts
/// stage s + 1.  Morphology (erode, then dilate the eroded image) is the
/// only two-stage app.
///
/// Because the stages, their staging images and their row kernels are
/// defined once, the one-shot runner, the in-process service and the shard
/// fan-out cannot drift apart: their bytes differ only if their lane
/// fleets do.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "apps/compositing.hpp"
#include "apps/matting.hpp"
#include "core/tile_executor.hpp"
#include "img/image.hpp"

namespace aimsc::apps {

/// The workload axis of the Table IV matrix: the paper's three evaluation
/// apps plus the extension kernels (filters, Bernstein gamma, morphology).
enum class AppKind { Compositing, Bilinear, Matting, Filters, Gamma,
                     Morphology };

/// What an app's stages read: views over caller memory plus the two app
/// knobs.  Frame roles follow `service::Request` (compositing: background,
/// foreground, alpha; matting: composite, background, foreground; every
/// other app: the source in `src`).
struct AppFrames {
  AppKind app = AppKind::Compositing;
  img::ImageView src;
  img::ImageView aux1;
  img::ImageView aux2;
  double gamma = 2.2;             ///< Gamma exponent
  std::size_t upscaleFactor = 2;  ///< Bilinear factor
};

AppFrames framesOf(const CompositingFrames& scene);
AppFrames framesOf(const MattingFrames& scene);
/// Frames of a single-source app (bilinear, filters, gamma, morphology).
AppFrames framesOf(AppKind app, img::ImageView src);

/// The image stage 0 writes into: filters and morphology copy the source
/// through (their kernels leave the border untouched); every other app
/// starts blank at its output shape and overwrites every pixel.
img::Image stagingImage(const AppFrames& frames);

/// Row kernel of \p stage writing \p out.  It reads the frames for stage 0
/// and, for a later stage, `frames.src` as the previous stage's image.
/// Views and the span are captured by value and must outlive the kernel.
core::TileExecutor::ArenaTileKernel stageKernel(const AppFrames& frames,
                                                std::size_t stage,
                                                img::ImageSpan out);

/// One pass of an app's schedule: owns the stage images and hands out each
/// stage's kernel.  Call `stage(s)` for s = 0, 1, ... in order, each after
/// every tile of stage s - 1 has run.
class StagedRun {
 public:
  explicit StagedRun(const AppFrames& frames);

  std::size_t stages() const { return images_.size(); }

  /// Rows every stage tiles (the output height).
  std::size_t height() const;

  /// Readies stage \p s's image (a copy of stage s - 1's for s > 0) and
  /// returns the kernel that fills it.
  core::TileExecutor::ArenaTileKernel stage(std::size_t s);

  /// The lane tasks of stage \p s on \p exec (task i runs lane i), for a
  /// caller that runs them on its own pool.
  std::vector<std::function<void()>> laneTasks(core::TileExecutor& exec,
                                               std::size_t s);

  /// The last stage's image (the app's output once every stage ran).
  img::Image& output() { return images_.back(); }

 private:
  AppFrames frames_;
  std::vector<img::Image> images_;  ///< one per stage
};

/// Runs every stage of \p frames on \p exec's own pool and returns the
/// output image: the tiled entry point of every app.
img::Image runTiled(const AppFrames& frames, core::TileExecutor& exec);

}  // namespace aimsc::apps
