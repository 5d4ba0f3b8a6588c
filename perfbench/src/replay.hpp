// The layer replay: re-executes one service request through the public
// functions the in-process dispatcher calls (makeRequestExecutor, the
// stage kernels, TileExecutor lane tasks on a core::ThreadPool,
// reliability::voteImages, energy::CostModel), timing each call from the
// outside.  Lanes run behind SampledBackend decorators through the public
// TileExecutor(lanes, par) constructor; the replayed bytes must equal the
// service's.
#pragma once

#include <cstdint>
#include <vector>

#include "core/thread_pool.hpp"
#include "ledger.hpp"
#include "reram/events.hpp"
#include "sampled_backend.hpp"
#include "service/fault_model_cache.hpp"
#include "service/request.hpp"
#include "service/request_kernels.hpp"

namespace perfbench {

struct WaveStats {
  double wallMs = 0;
  std::vector<double> laneMs;  ///< busy time of each lane task

  double maxLaneMs() const;
  double meanLaneMs() const;
};

struct ReplayResult {
  std::vector<std::uint8_t> pixels;  ///< voted output bytes
  aimsc::reram::EventCounts events;
  std::uint64_t opCount = 0;

  std::vector<double> fleetBuildMs;  ///< one per replica
  std::vector<WaveStats> stage0;     ///< one wave (all replicas' lanes)
  std::vector<WaveStats> stage1;     ///< morphology only
  double voteMs = -1;                ///< -1 when there is one replica
  double costModelMs = 0;
  double simEnergyNJ = 0;
  double simLatencyNs = 0;
  StageTimes substrate;  ///< summed over every lane decorator
  double totalMs = 0;
};

/// Replays \p q (tenant seed namespace 0) on \p pool.  Spans go to \p rec
/// under a `replay.request` root tagged \p requestId.  \p sampleEvery is the
/// decorator's sampling period.
ReplayResult replayRequest(const aimsc::service::Request& q,
                           const aimsc::service::ExecShape& shape,
                           aimsc::service::FaultModelCache& cache,
                           aimsc::core::ThreadPool& pool, SpanRecorder& rec,
                           std::uint64_t requestId, std::uint32_t sampleEvery);

}  // namespace perfbench
