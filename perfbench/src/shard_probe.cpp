#include "shard_probe.hpp"

#include <algorithm>
#include <stdexcept>

#include "shard/wire.hpp"

namespace perfbench {

namespace sh = aimsc::shard;

namespace {

/// Alternating repetitions of each timed shard call per item.
constexpr int kReps = 3;

}  // namespace

ShardProbe::ShardProbe(std::size_t shards)
    : fan_(sh::makeShardChannels(sh::ShardTransportKind::Subprocess, shards)),
      coordinator_(
          sh::makeShardChannels(sh::ShardTransportKind::Subprocess, shards),
          kLanes, kRowsPerTile) {}

ShardProbeResult ShardProbe::run(const Workload& w,
                                 const std::vector<std::uint64_t>& oracleFnv,
                                 SpanRecorder& rec,
                                 std::uint64_t& nextRequestId) {
  ShardProbeResult res;
  const std::size_t active = std::min(fan_.size(), kLanes);
  const auto n = static_cast<double>(w.items.size());
  for (std::size_t idx = 0; idx < w.items.size(); ++idx) {
    const Item& it = w.items[idx];
    aimsc::img::Image out(it.outWidth, it.outHeight);
    const aimsc::service::Request q = requestFor(it, out);
    const std::uint64_t id = nextRequestId++;
    const std::int64_t root = rec.begin("shard.request", -1, id);

    // Frame encode: one frame per active shard, as runReplica builds them.
    Clock::time_point t0 = Clock::now();
    std::int64_t span = rec.begin("shard.encode", root, id);
    std::vector<std::vector<std::uint8_t>> frames(active);
    for (std::size_t s = 0; s < active; ++s) {
      sh::TileAssignment a;
      a.laneSeedBase = q.seed;
      a.laneBegin = static_cast<std::uint32_t>(s);
      a.laneStride = static_cast<std::uint32_t>(active);
      a.rowBegin = 0;
      a.rowEnd = static_cast<std::uint32_t>(it.outHeight);
      frames[s] = sh::encodeRequest(sh::makeWireRequest(
          q, it.tenant, 0, q.seed, static_cast<std::uint32_t>(kLanes),
          static_cast<std::uint32_t>(kRowsPerTile), a));
      res.requestKb += static_cast<double>(frames[s].size()) / 1024.0 / n;
    }
    rec.end(span);
    const double encodeMs = msBetween(t0, Clock::now());

    // Warm every worker this item touches (fault tables, arenas).
    span = rec.begin("shard.warmup", root, id);
    for (std::size_t s = 0; s < active; ++s) fan_[s]->send(frames[s]);
    for (std::size_t s = 0; s < active; ++s) fan_[s]->receive();
    local_.serve(frames[0]);
    coordinator_.runReplica(q, it.tenant, 0, q.seed);
    rec.end(span);

    // Alternated repetitions, reported as medians: the probe's own parallel
    // fan-out, the coordinator's runReplica (its self time is the
    // difference of the two, so it can read slightly negative within
    // noise), and one frame over the socket vs served in-process.
    std::vector<std::vector<std::uint8_t>> replies(active);
    std::vector<double> slowestMs, runMs, roundtripMs, serveMs;
    const std::vector<std::uint8_t>& probeFrame = frames[active > 1 ? 1 : 0];
    sh::ShardCoordinator::ReplicaRun run;
    for (int rep = 0; rep < kReps; ++rep) {
      span = rec.begin("shard.fanout", root, id);
      std::vector<Clock::time_point> sent(active);
      for (std::size_t s = 0; s < active; ++s) {
        sent[s] = Clock::now();
        fan_[s]->send(frames[s]);
      }
      double slowest = 0;
      for (std::size_t s = 0; s < active; ++s) {
        replies[s] = fan_[s]->receive();
        slowest = std::max(slowest, msBetween(sent[s], Clock::now()));
      }
      rec.end(span);
      slowestMs.push_back(slowest);

      t0 = Clock::now();
      span = rec.begin("shard.run_replica", root, id);
      run = coordinator_.runReplica(q, it.tenant, 0, q.seed);
      rec.end(span);
      runMs.push_back(msBetween(t0, Clock::now()));

      // One frame alone: over the socket, then served in-process.
      t0 = Clock::now();
      span = rec.begin("shard.roundtrip", root, id);
      fan_[0]->send(probeFrame);
      fan_[0]->receive();
      rec.end(span);
      roundtripMs.push_back(msBetween(t0, Clock::now()));
      t0 = Clock::now();
      span = rec.begin("shard.worker_serve", root, id);
      local_.serve(probeFrame);
      rec.end(span);
      serveMs.push_back(msBetween(t0, Clock::now()));
    }
    res.roundtripMs += median(roundtripMs) / n;
    res.workerServeMs += median(serveMs) / n;
    for (const auto& reply : replies) {
      res.replyKb += static_cast<double>(reply.size()) / 1024.0 / n;
    }

    t0 = Clock::now();
    span = rec.begin("shard.decode_reply", root, id);
    std::vector<std::uint8_t> merged(it.outPixels(), 0);
    for (std::size_t s = 0; s < active; ++s) {
      const sh::WireReply reply = sh::decodeReply(replies[s]);
      if (!reply.ok) throw std::runtime_error("shard probe: " + reply.error);
      for (const sh::RowSegment& seg : reply.segments) {
        std::copy(seg.pixels.begin(), seg.pixels.end(),
                  merged.begin() + seg.rowBegin * it.outWidth);
      }
    }
    rec.end(span);
    const double decodeMs = msBetween(t0, Clock::now());

    rec.end(root);

    res.encodeMs += encodeMs / n;
    res.decodeReplyMs += decodeMs / n;
    res.coordinatorSelfMs +=
        (median(runMs) - encodeMs - median(slowestMs) - decodeMs) / n;
    if (it.replicas == 1) {
      if (sh::fnv1a64(merged) != oracleFnv[idx]) ++res.mismatches;
      if (sh::fnv1a64(run.pixels) != oracleFnv[idx]) ++res.mismatches;
    }
  }
  return res;
}

}  // namespace perfbench
