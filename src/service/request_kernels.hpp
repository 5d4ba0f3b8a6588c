/// \file request_kernels.hpp
/// \brief The single request -> lane-fleet construction path shared by the
///        in-process dispatcher (AcceleratorService) and the shard worker
///        (shard::ShardWorker).
///
/// The service's byte-exactness contract — a request's output bytes are a
/// pure function of (request fields, tenant seed namespace), equal to the
/// one-shot apps::runApp — only survives process fan-out if every executor
/// that touches the request builds the same lane fleet and runs the same
/// stages.  `makeRequestExecutor` is that fleet; the stages are the app
/// schedule (apps/schedule.hpp), reached through `framesOf`.
#pragma once

#include <memory>

#include "apps/schedule.hpp"
#include "core/tile_executor.hpp"
#include "img/image.hpp"
#include "service/fault_model_cache.hpp"
#include "service/request.hpp"

namespace aimsc::service {

/// The fleet-shape half of ServiceConfig — the part of the bit contract a
/// shard worker must reproduce (carried on the wire; see shard::WireRequest).
struct ExecShape {
  std::size_t lanes = 4;
  std::size_t rowsPerTile = 4;
};

/// Per-replica lane fleet for one request — the fleet apps::runAppDetailed
/// builds at `threads >= 1`, so a service request is bit-identical to the
/// equivalent runApp call (tests assert this).  The daemon-only difference
/// is warm state: device-variability ReRAM mats and binary-CIM engines draw
/// their misdecision tables from \p faultCache instead of re-running the
/// Monte-Carlo per call (a bit-preserving memoization — see
/// fault_model_cache.hpp).  \p seed is the fleet master seed (already
/// namespaced and replica-strided); `core::makeBackendLanes` derives the
/// lane seeds from it.
std::unique_ptr<core::TileExecutor> makeRequestExecutor(
    const ExecShape& shape, const Request& q, std::uint64_t seed,
    FaultModelCache& faultCache);

/// The frames and knobs of \p q as the app schedule reads them
/// (apps/schedule.hpp): the service and the shard worker run every stage
/// through apps::StagedRun over these.
apps::AppFrames framesOf(const Request& q);

/// Stage-0 staging image for \p q (apps::stagingImage; \p shape is the
/// request's output shape and is implied by \p q).
img::Image makeStage0Staging(const Request& q, const OutputShape& shape);

/// Stage-0 kernel of \p q writing \p out (apps::stageKernel).
core::TileExecutor::ArenaTileKernel stage0Kernel(const Request& q,
                                                 img::Image& out);

/// Stage-1 kernel of morphology: dilation of the eroded image \p tmp into
/// \p out (apps::stageKernel).  The caller seeds `out` with a copy of
/// \p tmp first, as apps::StagedRun does.
core::TileExecutor::ArenaTileKernel stage1Kernel(const img::Image& tmp,
                                                 img::Image& out);

}  // namespace aimsc::service
