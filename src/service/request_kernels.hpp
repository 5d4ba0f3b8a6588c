/// \file request_kernels.hpp
/// \brief The single request -> lane-fleet construction path shared by the
///        in-process dispatcher (AcceleratorService) and the shard worker
///        (shard::ShardWorker).
///
/// The service's byte-exactness contract — a request's output bytes are a
/// pure function of (request fields, tenant seed namespace), equal to the
/// one-shot apps::runApp — only survives process fan-out if every executor
/// that touches the request is built IDENTICALLY: same TileExecutorConfig
/// derivation, same staging-image initialization, same kernel closures.
/// These helpers are that one definition; both executors call them, so the
/// two paths cannot drift.
#pragma once

#include <memory>

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

/// Per-replica lane fleet for one request — the exact configuration
/// apps::runReplica builds, so a service request is bit-identical to the
/// equivalent runApp call (tests assert this).  The daemon-only difference
/// is warm state: device-variability ReRAM mats and binary-CIM engines draw
/// their misdecision tables from \p faultCache instead of re-running the
/// Monte-Carlo per call (a
/// bit-preserving memoization — see fault_model_cache.hpp).  \p seed is the
/// fleet master seed (already namespaced and replica-strided); lanes derive
/// their own seeds from it inside the executor.
std::unique_ptr<core::TileExecutor> makeRequestExecutor(
    const ExecShape& shape, const Request& q, std::uint64_t seed,
    FaultModelCache& faultCache);

/// Stage-0 staging image for \p q: what the stage-0 kernel writes into.
/// Smoothing copies the source through (border rows/columns pass through
/// untouched); morphology copies the source as the erode intermediate; the
/// rest start blank at the output shape and are fully overwritten.
img::Image makeStage0Staging(const Request& q, const OutputShape& shape);

/// Stage-0 tile kernel for \p q writing \p out (for morphology: the erode
/// pass into the intermediate).  Views and spans are captured by value —
/// they are pointers into client/staging memory that must outlive the wave.
core::TileExecutor::ArenaTileKernel stage0Kernel(const Request& q,
                                                 img::Image& out);

/// Stage-1 kernel (morphology only): the dilate pass over the eroded
/// intermediate, mirroring openKernelTiled's second forEachTile on the
/// SAME lane fleet.  The caller seeds `out.pixels() = tmp.pixels()` first
/// (borders pass through), exactly as the whole-image form does.
core::TileExecutor::ArenaTileKernel stage1Kernel(const img::Image& tmp,
                                                 img::Image& out);

}  // namespace aimsc::service
