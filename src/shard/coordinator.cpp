#include "shard/coordinator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace aimsc::shard {

namespace {

void validateShape(std::size_t lanes, std::size_t rowsPerTile) {
  if (lanes == 0 || rowsPerTile == 0) {
    throw std::invalid_argument("ShardCoordinator: zero-sized fleet shape");
  }
}

}  // namespace

ShardCoordinator::ShardCoordinator(std::unique_ptr<ShardSupervisor> fabric,
                                   std::size_t lanes, std::size_t rowsPerTile)
    : fabric_(std::move(fabric)), lanes_(lanes), rowsPerTile_(rowsPerTile) {
  if (fabric_ == nullptr) {
    throw std::invalid_argument("ShardCoordinator: null fabric");
  }
  validateShape(lanes_, rowsPerTile_);
}

ShardCoordinator::ShardCoordinator(
    std::vector<std::unique_ptr<ShardChannel>> channels, std::size_t lanes,
    std::size_t rowsPerTile)
    : ShardCoordinator(
          std::make_unique<ShardSupervisor>(std::move(channels),
                                            ShardSupervisor::ChannelFactory{}),
          lanes, rowsPerTile) {}

ShardCoordinator::ReplicaRun ShardCoordinator::runReplica(
    const service::Request& q, service::TenantId tenant,
    std::uint64_t seedNamespace, std::uint64_t replicaSeed) {
  const service::OutputShape shape = service::outputShapeFor(q);

  // Surplus shards idle: a lane is the indivisible unit of work, so at
  // most `lanes` shards can own one.  (Idle shards still count as
  // re-dispatch survivors below.)
  const std::size_t shardCount = fabric_->shardCount();
  const std::size_t active = std::min(shardCount, lanes_);

  // Encode every dispatch up front and KEEP the frames: a dead shard's
  // frame is re-dispatched verbatim to a survivor, which is what makes
  // degraded output byte-identical (the frame carries the full lane
  // assignment and all seeds — worker identity never touches the bits).
  std::vector<std::vector<std::uint8_t>> frames(active);
  for (std::size_t s = 0; s < active; ++s) {
    TileAssignment assignment;
    assignment.laneSeedBase = replicaSeed;
    assignment.laneBegin = static_cast<std::uint32_t>(s);
    assignment.laneStride = static_cast<std::uint32_t>(active);
    assignment.rowBegin = 0;
    assignment.rowEnd = static_cast<std::uint32_t>(shape.height);
    const WireRequest wq = makeWireRequest(
        q, tenant, seedNamespace, replicaSeed,
        static_cast<std::uint32_t>(lanes_),
        static_cast<std::uint32_t>(rowsPerTile_), assignment);
    frames[s] = encodeRequest(wq);
  }

  // Fan out to live owners.  Each channel carries at most one in-flight
  // frame per replica and the sockets are independent, so this
  // send-all-then-collect-in-order schedule cannot deadlock on buffers.
  // Already-dead shards skip straight to the re-dispatch pass.
  std::vector<std::uint8_t> started(active, 0);
  for (std::size_t s = 0; s < active; ++s) {
    if (fabric_->dead(s)) continue;
    fabric_->start(s, frames[s]);  // copy: the original is kept for replay
    started[s] = 1;
  }

  // Join.  A shard that dies past its budget here leaves an orphan
  // dispatch; survivors pick those up after the healthy joins complete.
  std::vector<WireReply> replies(active);
  std::vector<std::size_t> orphans;
  for (std::size_t s = 0; s < active; ++s) {
    if (!started[s]) {
      orphans.push_back(s);
      continue;
    }
    try {
      replies[s] = fabric_->finish(s);
    } catch (const ShardDead&) {
      orphans.push_back(s);
    }
  }

  // Degraded mode: each orphaned frame goes, verbatim, to the first live
  // shard that will take it.  All joins above are done, so every live
  // channel is idle; a survivor that dies mid-stand-in just moves the
  // frame to the next one.
  bool degraded = false;
  for (const std::size_t o : orphans) {
    degraded = true;
    bool served = false;
    std::string lastWhy = "no live shard remains";
    for (std::size_t s = 0; s < shardCount && !served; ++s) {
      if (fabric_->dead(s)) continue;
      try {
        replies[o] = fabric_->roundTrip(s, frames[o]);
        served = true;
        ++reassigned_;
      } catch (const ShardDead& e) {
        lastWhy = e.what();
      }
    }
    if (!served) {
      throw std::runtime_error("shard fabric exhausted: " + lastWhy);
    }
  }
  if (degraded) ++degradedReplicas_;

  // Merge row segments into the full image, verifying every row lands
  // exactly once, and sum the per-lane ledgers, verifying every lane
  // bills exactly once — degraded or not, the contract is identical.
  ReplicaRun run;
  run.degraded = degraded;
  run.pixels.assign(shape.width * shape.height, 0);
  std::vector<std::uint8_t> rowSeen(shape.height, 0);
  std::vector<std::uint8_t> laneSeen(lanes_, 0);
  for (std::size_t s = 0; s < active; ++s) {
    const WireReply& reply = replies[s];
    if (!reply.ok) {
      throw std::runtime_error("shard " + std::to_string(s) +
                               " failed: " + reply.error);
    }
    if (reply.width != shape.width || reply.height != shape.height) {
      throw std::runtime_error("shard " + std::to_string(s) +
                               " replied with a mismatched output shape");
    }
    for (const RowSegment& seg : reply.segments) {
      for (std::size_t r = seg.rowBegin; r < seg.rowEnd; ++r) {
        if (rowSeen[r]) {
          throw std::runtime_error("shard merge: row " + std::to_string(r) +
                                   " covered twice");
        }
        rowSeen[r] = 1;
      }
      std::copy(seg.pixels.begin(), seg.pixels.end(),
                run.pixels.begin() + seg.rowBegin * shape.width);
    }
    for (const LaneStats& ls : reply.laneStats) {
      if (ls.lane >= lanes_ || laneSeen[ls.lane]) {
        throw std::runtime_error("shard merge: bad or duplicate lane ledger");
      }
      laneSeen[ls.lane] = 1;
      run.events += ls.events;
      run.opCount += ls.opCount;
    }
  }
  if (std::find(rowSeen.begin(), rowSeen.end(), 0) != rowSeen.end()) {
    throw std::runtime_error("shard merge: incomplete row coverage");
  }
  if (std::find(laneSeen.begin(), laneSeen.end(), 0) != laneSeen.end()) {
    throw std::runtime_error("shard merge: lane ledger missing");
  }
  return run;
}

}  // namespace aimsc::shard
