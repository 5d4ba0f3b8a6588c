#include "service/request_kernels.hpp"

#include <stdexcept>

#include "apps/bilinear.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/matting.hpp"
#include "apps/morphology.hpp"

namespace aimsc::service {

std::unique_ptr<core::TileExecutor> makeRequestExecutor(
    const ExecShape& shape, const Request& q, std::uint64_t seed,
    FaultModelCache& faultCache) {
  if (q.design == core::DesignKind::ReramSc) {
    core::TileExecutorConfig tc;
    tc.lanes = shape.lanes;
    tc.threads = 0;  // the caller's pool runs the wave, not the executor
    tc.rowsPerTile = shape.rowsPerTile;
    tc.mat.streamLength = q.streamLength;
    tc.mat.deviceVariability = q.faults.deviceVariability;
    if (q.faults.deviceVariability) tc.mat.device = q.faults.device;
    tc.mat.faultModelSamples = q.faults.faultModelSamples;
    tc.mat.seed = seed;
    tc.mat.faultModelProvider = faultCache.provider();
    tc.faults = q.faults;
    return std::make_unique<core::TileExecutor>(tc);
  }
  core::BackendFactoryConfig bc;
  bc.streamLength = q.streamLength;
  bc.seed = seed;
  bc.faults = q.faults;
  bc.faultModelProvider = faultCache.provider();
  core::ParallelConfig par;
  par.lanes = shape.lanes;
  par.threads = 0;
  par.rowsPerTile = shape.rowsPerTile;
  return std::make_unique<core::TileExecutor>(
      core::makeBackendLanes(q.design, bc, shape.lanes), par);
}

img::Image makeStage0Staging(const Request& q, const OutputShape& shape) {
  // Staging init mirrors each app's whole-image form: smoothing and
  // morphology copy the source through (borders), the rest start blank and
  // are fully overwritten.
  if (q.app == apps::AppKind::Filters || q.app == apps::AppKind::Morphology) {
    return q.src.toImage();
  }
  return img::Image(shape.width, shape.height);
}

core::TileExecutor::ArenaTileKernel stage0Kernel(const Request& q,
                                                 img::Image& out) {
  const img::ImageSpan dst(out);
  switch (q.app) {
    case apps::AppKind::Compositing: {
      const apps::CompositingFrames frames(q.src, q.aux1, q.aux2);
      return [frames, dst](core::ScBackend& b, core::StreamArena& arena,
                           std::size_t r0, std::size_t r1) {
        apps::compositeKernelRows(frames, b, arena, dst, r0, r1);
      };
    }
    case apps::AppKind::Matting: {
      const apps::MattingFrames frames(q.src, q.aux1, q.aux2);
      return [frames, dst](core::ScBackend& b, core::StreamArena& arena,
                           std::size_t r0, std::size_t r1) {
        apps::mattingKernelRows(frames, b, arena, dst, r0, r1);
      };
    }
    case apps::AppKind::Bilinear: {
      const img::ImageView src = q.src;
      const std::size_t factor = q.upscaleFactor;
      return [src, factor, dst](core::ScBackend& b, core::StreamArena& arena,
                                std::size_t r0, std::size_t r1) {
        apps::upscaleKernelRows(src, factor, b, arena, dst, r0, r1);
      };
    }
    case apps::AppKind::Filters: {
      const img::ImageView src = q.src;
      return [src, dst](core::ScBackend& b, core::StreamArena& arena,
                        std::size_t r0, std::size_t r1) {
        apps::smoothKernelRows(src, b, arena, dst, r0, r1);
      };
    }
    case apps::AppKind::Gamma: {
      const img::ImageView src = q.src;
      const double gamma = q.gamma;
      return [src, gamma, dst](core::ScBackend& b, core::StreamArena& arena,
                               std::size_t r0, std::size_t r1) {
        apps::gammaKernelRows(src, gamma, b, arena, dst, r0, r1);
      };
    }
    case apps::AppKind::Morphology: {
      const img::ImageView src = q.src;
      return [src, dst](core::ScBackend& b, core::StreamArena& arena,
                        std::size_t r0, std::size_t r1) {
        apps::erodeKernelRows(src, b, arena, dst, r0, r1);
      };
    }
  }
  throw std::invalid_argument("service: bad app");
}

core::TileExecutor::ArenaTileKernel stage1Kernel(const img::Image& tmp,
                                                 img::Image& out) {
  const img::ImageView src(tmp);
  const img::ImageSpan dst(out);
  return [src, dst](core::ScBackend& b, core::StreamArena& arena,
                    std::size_t r0, std::size_t r1) {
    apps::dilateKernelRows(src, b, arena, dst, r0, r1);
  };
}

}  // namespace aimsc::service
