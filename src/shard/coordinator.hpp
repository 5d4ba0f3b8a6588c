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
/// Pipelining (docs/SHARDING.md "Pipelining"): the coordinator is an event
/// loop on its caller's thread.  `submit()` appends one frame per active
/// shard of a replica to that shard's FIFO; `pump()` keeps one frame in
/// flight per channel, polls the busy channels together with a wake fd,
/// starts a shard's next frame as soon as its reply lands, and merges a
/// replica when its last reply lands.  So the replicas of every request
/// admitted at once share the workers with no barrier between them.
///
/// Failure semantics (docs/SHARDING.md "Failure semantics & recovery"):
/// transient worker failures are absorbed by the `ShardSupervisor`
/// (retry/backoff/respawn, byte-identical replay).  A shard that exhausts
/// its budget is DEAD; the coordinator then moves its in-flight and queued
/// frames, verbatim, to the first live shard's FIFO.  A frame carries the
/// complete lane assignment and every seed, so worker identity does not
/// touch the bits: the survivor produces byte-for-byte the rows the dead
/// shard would have, merges stay exactly-once, and the replica is merely
/// marked degraded.  Only when every shard is dead does a replica fail —
/// and it fails with an error, never a hang (every wait is
/// deadline-bounded).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
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

  ~ShardCoordinator();
  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// One replica execution fanned across the shards.
  struct ReplicaRun {
    std::vector<std::uint8_t> pixels;  ///< full output image, row-major
    reram::EventCounts events;         ///< summed over all lanes
    std::uint64_t opCount = 0;         ///< summed over all lanes
    bool degraded = false;  ///< some lane slice ran on a stand-in shard
  };

  /// Receives a submitted replica's merged run, or a non-empty \p error
  /// (deterministic worker failure, incomplete row coverage, or every
  /// shard dead).  Runs on the thread that calls pump().
  using ReplicaDone =
      std::function<void(ReplicaRun&& run, const std::string& error)>;

  /// Queues ONE replica of \p q (fleet master seed \p replicaSeed, which
  /// must already be namespaced and replica-strided): copies its frames
  /// into a wire request and appends one frame per active shard to that
  /// shard's FIFO (a dead owner's frame to the first live shard's); each
  /// frame is encoded once it is next in line.  \p done runs once, from
  /// pump(), when the replica's last reply merges — or at once when no
  /// live shard remains.  The sharded AcceleratorService submits every
  /// replica of each admitted request here and votes them in its join.
  void submit(const service::Request& q, service::TenantId tenant,
              std::uint64_t seedNamespace, std::uint64_t replicaSeed,
              ReplicaDone done);

  /// One turn of the event loop: starts the next queued frame on every
  /// idle live shard, then waits until a busy shard's reply is readable,
  /// its recv deadline (counted from its dispatch) passes, or wake() is
  /// called, and handles what it found — starting each freed shard's next
  /// frame, merging completed replicas and calling their `done`.  With
  /// nothing queued or in flight it waits for wake() alone.
  void pump();

  /// Interrupts a pump() that is waiting.  The one entry point that may be
  /// called from any thread.
  void wake();

  /// submit() then pump() until the replica merges; throws
  /// std::runtime_error with the replica's error.
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
  struct Job;
  /// One dispatch: the slice of \p job owned by shard \p slot.
  struct Frame {
    std::shared_ptr<Job> job;
    std::size_t slot = 0;
    std::vector<std::uint8_t> bytes;  ///< encoded at most one ahead
    bool rerouted = false;            ///< on a stand-in shard
  };
  struct ShardQueue {
    std::deque<Frame> queued;
    std::optional<Frame> inflight;
  };

  /// Appends \p f to shard \p s's FIFO, or — \p s dead — to the first live
  /// shard's; with none left, fails it with \p why.
  void place(Frame f, std::size_t s, const std::string& why);
  /// Starts shard \p s's next queued frame if the shard is idle and live.
  void startNext(std::size_t s);
  /// Encodes \p f from its replica's wire request, unless already done.
  void encode(Frame& f);
  /// Collects shard \p s's reply (see ShardSupervisor::collect).
  void collect(std::size_t s, bool overdue);
  /// Moves dead shard \p s's in-flight and queued frames to a survivor.
  void reroute(std::size_t s, const std::string& why);
  /// Records \p f's reply, or its \p error; merges its replica after the
  /// last one.
  void land(Frame f, WireReply reply, const std::string& error);
  /// Merges \p job's replies into the full image and its ledgers.
  ReplicaRun merge(const Job& job) const;

  std::unique_ptr<ShardSupervisor> fabric_;
  std::size_t lanes_;
  std::size_t rowsPerTile_;
  std::vector<ShardQueue> queues_;
  int wakeFd_ = -1;
  std::uint64_t reassigned_ = 0;
  std::uint64_t degradedReplicas_ = 0;
};

}  // namespace aimsc::shard
