#include "service/request_kernels.hpp"

namespace aimsc::service {

std::unique_ptr<core::TileExecutor> makeRequestExecutor(
    const ExecShape& shape, const Request& q, std::uint64_t seed,
    FaultModelCache& faultCache) {
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

apps::AppFrames framesOf(const Request& q) {
  apps::AppFrames f;
  f.app = q.app;
  f.src = q.src;
  f.aux1 = q.aux1;
  f.aux2 = q.aux2;
  f.gamma = q.gamma;
  f.upscaleFactor = q.upscaleFactor;
  return f;
}

img::Image makeStage0Staging(const Request& q, const OutputShape&) {
  return apps::stagingImage(framesOf(q));
}

core::TileExecutor::ArenaTileKernel stage0Kernel(const Request& q,
                                                 img::Image& out) {
  return apps::stageKernel(framesOf(q), 0, out);
}

core::TileExecutor::ArenaTileKernel stage1Kernel(const img::Image& tmp,
                                                 img::Image& out) {
  return apps::stageKernel(apps::framesOf(apps::AppKind::Morphology, tmp), 1,
                           out);
}

}  // namespace aimsc::service
