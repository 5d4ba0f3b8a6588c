#include "shard/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <exception>

#include "service/request_kernels.hpp"
#include "shard/transport.hpp"

namespace aimsc::shard {

ShardWorker::ShardWorker(bool enactProcessFaults)
    : enactProcessFaults_(enactProcessFaults) {}

std::vector<std::uint8_t> garbageReplyFrame() {
  // Deterministic junk: wrong magic, plausible length.  decodeReply throws
  // DecodeError on byte 0; the supervisor's retry path takes it from there.
  std::vector<std::uint8_t> junk(48);
  for (std::size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<std::uint8_t>(0x5A ^ (i * 7));
  }
  return junk;
}

std::vector<std::uint8_t> ShardWorker::serve(
    std::span<const std::uint8_t> frame) {
  WireReply reply;
  try {
    const WireRequest wq = decodeRequest(frame);
    if (wq.kind == MessageKind::Misbehave) {
      armedFault_ = wq.fault;
      return {};  // arming frames get no reply (Execute pairing stays 1:1)
    }
    const WorkerFault fault = armedFault_;
    armedFault_ = WorkerFault::None;  // one-shot: retries are fault-free
    if (fault == WorkerFault::GarbageReply) return garbageReplyFrame();
    if (fault == WorkerFault::None) {
      reply = execute(wq);
    } else if (!enactProcessFaults_) {
      reply.ok = false;
      reply.error = "shard worker: process fault armed (loopback cannot "
                    "crash/hang)";
    } else {
      // Do the work first — the modeled failure is a worker dying BETWEEN
      // computing and replying, the worst replay case.
      (void)execute(wq);
      postAction_ = fault;
      return {};
    }
  } catch (const std::exception& e) {
    reply = WireReply{};
    reply.ok = false;
    reply.error = e.what();
  }
  return encodeReply(reply);
}

WireReply ShardWorker::execute(const WireRequest& wq) {
  const service::Request q = wq.toRequest();
  const service::OutputShape shape = service::outputShapeFor(q);

  const service::ExecShape es{wq.lanes, wq.rowsPerTile};
  auto exec = service::makeRequestExecutor(es, q, wq.assignment.laneSeedBase,
                                           faultCache_);
  // Re-adopt the warm arena pool: capacity survives the executor rebuild,
  // bits do not change (reset rewinds cursors only).
  exec->adoptArenas(std::move(arenaPool_));
  arenaPool_.clear();

  const std::uint32_t stride = wq.assignment.laneStride;
  const std::uint32_t begin = wq.assignment.laneBegin;
  const auto owned = [stride, begin](std::size_t lane) {
    return lane % stride == begin;
  };

  // A later stage reads the WHOLE image of the stage before it, so every
  // stage but the last runs on every lane (deterministic — identical in
  // every worker); the last runs on owned lanes only.  Ledgers are reported
  // for owned lanes only, so the merged bill still equals the solo fleet
  // sum exactly.
  apps::StagedRun run(service::framesOf(q));
  for (std::size_t s = 0; s < run.stages(); ++s) {
    const bool last = s + 1 == run.stages();
    auto tasks = run.laneTasks(*exec, s);
    for (std::size_t lane = 0; lane < tasks.size(); ++lane) {
      if (!last || owned(lane)) tasks[lane]();
    }
  }
  const img::Image& output = run.output();

  WireReply reply;
  reply.width = static_cast<std::uint32_t>(shape.width);
  reply.height = static_cast<std::uint32_t>(shape.height);

  // One segment per owned tile (tile t is pinned to lane t % lanes, the
  // executor's schedule) clipped to the assignment's row window.
  const std::size_t height = output.height();
  const std::size_t rpt = wq.rowsPerTile;
  const std::size_t numTiles = (height + rpt - 1) / rpt;
  const std::size_t winBegin = wq.assignment.rowBegin;
  const std::size_t winEnd =
      wq.assignment.rowEnd == 0 ? height
                                : std::min<std::size_t>(wq.assignment.rowEnd,
                                                        height);
  for (std::size_t t = 0; t < numTiles; ++t) {
    if (!owned(t % wq.lanes)) continue;
    const std::size_t r0 = std::max(t * rpt, winBegin);
    const std::size_t r1 = std::min(t * rpt + rpt, winEnd);
    if (r0 >= r1) continue;
    RowSegment s;
    s.rowBegin = static_cast<std::uint32_t>(r0);
    s.rowEnd = static_cast<std::uint32_t>(r1);
    const std::uint8_t* base = output.pixels().data() + r0 * shape.width;
    s.pixels.assign(base, base + (r1 - r0) * shape.width);
    reply.segments.push_back(std::move(s));
  }

  // Ledger for every owned lane — including tile-less idle lanes, whose
  // construction may still have cost events (the solo path bills them too).
  for (std::size_t lane = 0; lane < exec->lanes(); ++lane) {
    if (!owned(lane)) continue;
    LaneStats ls;
    ls.lane = static_cast<std::uint32_t>(lane);
    ls.opCount = exec->backend(lane).opCount();
    ls.events = exec->backend(lane).events();
    reply.laneStats.push_back(std::move(ls));
  }

  arenaPool_ = exec->releaseArenas();
  return reply;
}

int shardWorkerMain(int fd) {
  ShardWorker worker(/*enactProcessFaults=*/true);
  // A zero deadline blocks: the worker waits for its next frame as long as
  // the coordinator keeps the socket open.
  constexpr std::chrono::milliseconds kBlock{0};
  std::vector<std::uint8_t> frame;
  for (;;) {
    if (readFrame(fd, frame, kBlock) != IoResult::Ok) {
      return 0;  // coordinator closed: clean exit
    }
    const std::vector<std::uint8_t> reply = worker.serve(frame);
    switch (worker.takePostServeAction()) {
      case WorkerFault::CrashBeforeReply:
        ::_exit(43);
      case WorkerFault::HangBeforeReply:
        for (;;) ::pause();  // wedged until the supervisor SIGKILLs us
      default:
        break;
    }
    if (reply.empty()) continue;  // Misbehave arming frames get no reply
    if (writeFrame(fd, reply, kBlock) != IoResult::Ok) {
      return 2;  // coordinator vanished mid-reply
    }
  }
}

}  // namespace aimsc::shard
