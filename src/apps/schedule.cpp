#include "apps/schedule.hpp"

#include <stdexcept>
#include <utility>

#include "apps/bilinear.hpp"
#include "apps/filters.hpp"
#include "apps/morphology.hpp"

namespace aimsc::apps {

namespace {

std::size_t stageCount(AppKind app) {
  return app == AppKind::Morphology ? 2 : 1;
}

}  // namespace

AppFrames framesOf(const CompositingFrames& scene) {
  AppFrames f;
  f.app = AppKind::Compositing;
  f.src = scene.background;
  f.aux1 = scene.foreground;
  f.aux2 = scene.alpha;
  return f;
}

AppFrames framesOf(const MattingFrames& scene) {
  AppFrames f;
  f.app = AppKind::Matting;
  f.src = scene.composite;
  f.aux1 = scene.background;
  f.aux2 = scene.foreground;
  return f;
}

AppFrames framesOf(AppKind app, img::ImageView src) {
  AppFrames f;
  f.app = app;
  f.src = src;
  return f;
}

img::Image stagingImage(const AppFrames& frames) {
  switch (frames.app) {
    case AppKind::Filters:
    case AppKind::Morphology:
      return frames.src.toImage();
    case AppKind::Bilinear:
      return img::Image(frames.src.width() * frames.upscaleFactor,
                        frames.src.height() * frames.upscaleFactor);
    default:
      return img::Image(frames.src.width(), frames.src.height());
  }
}

core::TileExecutor::ArenaTileKernel stageKernel(const AppFrames& frames,
                                                std::size_t stage,
                                                img::ImageSpan out) {
  const img::ImageView src = frames.src;
  switch (frames.app) {
    case AppKind::Compositing: {
      const CompositingFrames scene(frames.src, frames.aux1, frames.aux2);
      return [scene, out](core::ScBackend& b, core::StreamArena& arena,
                          std::size_t r0, std::size_t r1) {
        compositeKernelRows(scene, b, arena, out, r0, r1);
      };
    }
    case AppKind::Matting: {
      const MattingFrames scene(frames.src, frames.aux1, frames.aux2);
      return [scene, out](core::ScBackend& b, core::StreamArena& arena,
                          std::size_t r0, std::size_t r1) {
        mattingKernelRows(scene, b, arena, out, r0, r1);
      };
    }
    case AppKind::Bilinear: {
      const std::size_t factor = frames.upscaleFactor;
      return [src, factor, out](core::ScBackend& b, core::StreamArena& arena,
                                std::size_t r0, std::size_t r1) {
        upscaleKernelRows(src, factor, b, arena, out, r0, r1);
      };
    }
    case AppKind::Filters:
      return [src, out](core::ScBackend& b, core::StreamArena& arena,
                        std::size_t r0, std::size_t r1) {
        smoothKernelRows(src, b, arena, out, r0, r1);
      };
    case AppKind::Gamma: {
      const double gamma = frames.gamma;
      return [src, gamma, out](core::ScBackend& b, core::StreamArena& arena,
                               std::size_t r0, std::size_t r1) {
        gammaKernelRows(src, gamma, b, arena, out, r0, r1);
      };
    }
    case AppKind::Morphology:
      // Opening: erode the source, then dilate the eroded image.
      if (stage == 0) {
        return [src, out](core::ScBackend& b, core::StreamArena& arena,
                          std::size_t r0, std::size_t r1) {
          erodeKernelRows(src, b, arena, out, r0, r1);
        };
      }
      return [src, out](core::ScBackend& b, core::StreamArena& arena,
                        std::size_t r0, std::size_t r1) {
        dilateKernelRows(src, b, arena, out, r0, r1);
      };
  }
  throw std::invalid_argument("apps::stageKernel: bad app");
}

StagedRun::StagedRun(const AppFrames& frames)
    : frames_(frames), images_(stageCount(frames.app)) {
  images_[0] = stagingImage(frames);
}

std::size_t StagedRun::height() const { return images_[0].height(); }

core::TileExecutor::ArenaTileKernel StagedRun::stage(std::size_t s) {
  AppFrames in = frames_;
  if (s > 0) {
    images_.at(s) = images_[s - 1];
    in.src = images_[s - 1];
  }
  return stageKernel(in, s, images_.at(s));
}

std::vector<std::function<void()>> StagedRun::laneTasks(
    core::TileExecutor& exec, std::size_t s) {
  return exec.laneTasks(height(), stage(s));
}

img::Image runTiled(const AppFrames& frames, core::TileExecutor& exec) {
  StagedRun run(frames);
  for (std::size_t s = 0; s < run.stages(); ++s) {
    exec.forEachTile(run.height(), run.stage(s));
  }
  return std::move(run.output());
}

}  // namespace aimsc::apps
