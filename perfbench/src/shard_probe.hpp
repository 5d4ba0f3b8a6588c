// The shard-layer probe: drives a workload's requests through the public
// shard surface (makeWireRequest + encodeRequest, SubprocessChannel
// send/receive, decodeReply, ShardWorker::serve, ShardCoordinator::runReplica)
// and times each call from the outside.
#pragma once

#include <memory>
#include <vector>

#include "ledger.hpp"
#include "shard/coordinator.hpp"
#include "shard/transport.hpp"
#include "shard/worker.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ShardProbeResult {
  // Per request (replica 0, all four shard frames).
  double encodeMs = 0;
  double requestKb = 0;
  double replyKb = 0;
  double decodeReplyMs = 0;
  double coordinatorSelfMs = 0;
  // Per frame.
  double roundtripMs = 0;
  double workerServeMs = 0;
  /// Replica-0 outputs (merged fan-out and coordinator) whose bytes differ
  /// from the oracle (single-replica items only).
  std::size_t mismatches = 0;
};

class ShardProbe {
 public:
  /// Forks the probe's workers: four fan-out channels and a four-shard
  /// coordinator.  Construct it before the process starts any thread.
  explicit ShardProbe(std::size_t shards = 4);

  ShardProbeResult run(const Workload& w,
                       const std::vector<std::uint64_t>& oracleFnv,
                       SpanRecorder& rec, std::uint64_t& nextRequestId);

 private:
  std::vector<std::unique_ptr<aimsc::shard::ShardChannel>> fan_;
  aimsc::shard::ShardCoordinator coordinator_;
  aimsc::shard::ShardWorker local_;
};

}  // namespace perfbench
