/// \file coordinator.hpp
/// \brief The shard coordinator: fans one request's lane fleet out across
///        supervised workers and merges row slices + cost ledgers at join.
///
/// Partitioning rule (docs/SHARDING.md): with `activeShards =
/// min(shards, lanes)`, shard s owns lanes `{l : l % activeShards == s}`
/// — the SAME modular pinning `TileExecutor` uses for tiles, one level up.
/// Every lane is owned by exactly one shard, every tile is pinned to
/// exactly one lane, so the union of the shards' row segments covers every
/// output row exactly once and the merged ledger bills every lane exactly
/// once.  Because a lane's bits depend only on its seed and its ascending
/// tile sequence, the merged bytes are identical for ANY shard count —
/// including 1 — and equal to the in-process dispatcher and one-shot
/// apps::runApp (tests/test_shard.cpp proves this differentially over the
/// real subprocess transport).
///
/// Failure semantics (docs/SHARDING.md "Failure semantics & recovery"):
/// transient worker failures are absorbed by the `ShardSupervisor`
/// (retry/backoff/respawn, byte-identical replay).  A shard that exhausts
/// its budget is DEAD; the coordinator then re-dispatches that shard's
/// EXACT encoded frame to a survivor.  The frame carries the complete lane
/// assignment and every seed, so worker identity does not touch the bits:
/// the survivor produces byte-for-byte the rows the dead shard would have,
/// merges stay exactly-once, and the replica is merely marked degraded.
/// Only when every shard is dead does a request fail — and it fails with
/// an error, never a hang (every wait is deadline-bounded).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "service/request.hpp"
#include "shard/supervisor.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"

namespace aimsc::shard {

class ShardCoordinator {
 public:
  /// Takes ownership of the supervised \p fabric; \p lanes / \p rowsPerTile
  /// are the fleet shape of every request (ServiceConfig's role — part of
  /// the bit contract, carried on the wire).
  ShardCoordinator(std::unique_ptr<ShardSupervisor> fabric, std::size_t lanes,
                   std::size_t rowsPerTile);

  /// Convenience: wraps bare \p channels in a supervisor with no respawn
  /// factory (retry-in-place only — failures past the attempt budget mark
  /// the shard dead).  The differential tests' cheap construction path.
  ShardCoordinator(std::vector<std::unique_ptr<ShardChannel>> channels,
                   std::size_t lanes, std::size_t rowsPerTile);

  /// One replica execution fanned across the shards.
  struct ReplicaRun {
    std::vector<std::uint8_t> pixels;  ///< full output image, row-major
    reram::EventCounts events;         ///< summed over all lanes
    std::uint64_t opCount = 0;         ///< summed over all lanes
    bool degraded = false;  ///< some lane slice ran on a stand-in shard
  };

  /// Executes ONE replica of \p q (fleet master seed \p replicaSeed, which
  /// must already be namespaced and replica-strided) across all live
  /// shards, re-dispatching dead shards' frames to survivors, and merges
  /// the row segments into the full output image.  Throws
  /// std::runtime_error on deterministic worker failure, incomplete row
  /// coverage, or when every shard is dead.
  /// The sharded AcceleratorService runs every replica of a request
  /// through here and votes them in its join.
  ReplicaRun runReplica(const service::Request& q, service::TenantId tenant,
                        std::uint64_t seedNamespace,
                        std::uint64_t replicaSeed);

  ShardSupervisor& fabric() { return *fabric_; }
  const ShardSupervisor& fabric() const { return *fabric_; }

  /// Lane slices served by a stand-in shard because their owner was dead.
  std::uint64_t reassignedDispatches() const { return reassigned_; }
  /// Replicas that completed in degraded mode.
  std::uint64_t degradedReplicas() const { return degradedReplicas_; }

  std::size_t shardCount() const { return fabric_->shardCount(); }
  std::size_t lanes() const { return lanes_; }
  std::size_t rowsPerTile() const { return rowsPerTile_; }

 private:
  std::unique_ptr<ShardSupervisor> fabric_;
  std::size_t lanes_;
  std::size_t rowsPerTile_;
  std::uint64_t reassigned_ = 0;
  std::uint64_t degradedReplicas_ = 0;
};

}  // namespace aimsc::shard
