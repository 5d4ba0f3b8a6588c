/// \file worker.hpp
/// \brief The shard worker: decodes wire requests, executes its assigned
///        lane slice bit-identically to the in-process dispatcher, and
///        encodes the owned rows + per-lane cost ledgers as a reply.
///
/// Execution contract (docs/SHARDING.md): the worker rebuilds the request's
/// full lane fleet through the SAME construction path as the in-process
/// service (`service::makeRequestExecutor`, i.e. `core::makeBackendLanes`
/// over the wire `laneSeedBase`), then runs the app schedule
/// (apps/schedule.hpp) with ONLY the lanes its `TileAssignment` names in
/// the last stage.  Because lane l's bits depend
/// only on lane l's seed and its ascending tile sequence — never on which
/// other lanes run, or in which process — the rows this worker produces
/// are byte-identical to the rows lane l produces in a solo run.  A later
/// stage reads the FULL image of the stage before it (morphology's dilate
/// reads the whole eroded image), so every stage but the last runs on
/// every lane (deterministic, identical in every worker); ledgers are
/// reported for owned lanes only, so the merged bill still equals the solo
/// fleet sum exactly.
///
/// Warm state mirrors the PR-7 daemon: a per-worker
/// `service::FaultModelCache` memoizes Monte-Carlo misdecision tables
/// (bit-preserving) and a per-worker arena pool is re-adopted by each
/// request's executor so stream-buffer capacity survives rebuilds (PR-5
/// arenas; reset rewinds cursors, keeps capacity).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/stream_arena.hpp"
#include "service/fault_model_cache.hpp"
#include "shard/wire.hpp"

namespace aimsc::shard {

class ShardWorker {
 public:
  /// \p enactProcessFaults decides what an armed `CrashBeforeReply` or
  /// `HangBeforeReply` fault does: true (the subprocess worker) runs it —
  /// serve() executes, returns empty and leaves the fault to the serve
  /// loop; false (loopback, which has no process to lose) refuses it with
  /// an error reply.
  explicit ShardWorker(bool enactProcessFaults = false);

  /// Serves one wire frame: decode -> execute -> encoded reply.  Malformed
  /// frames and execution failures come back as error replies (the frame
  /// layer never throws out of serve), so a coordinator always gets an
  /// answer from a live worker.  Two frame kinds break that rule by design:
  /// `Misbehave` arms a fault and returns an EMPTY vector (no reply — the
  /// request/reply pairing of Execute frames stays 1:1), and an Execute
  /// that fires an armed process-level fault returns empty while recording
  /// the action in `takePostServeAction()` for the serve loop to perform.
  std::vector<std::uint8_t> serve(std::span<const std::uint8_t> frame);

  /// The process-level fault the last serve() fired (CrashBeforeReply or
  /// HangBeforeReply), cleared by the call.  The serve loop performs it
  /// AFTER serve returns — the work has already been done, modeling a
  /// worker that dies between computing and replying.
  WorkerFault takePostServeAction() {
    const WorkerFault a = postAction_;
    postAction_ = WorkerFault::None;
    return a;
  }

  /// Warm-state observability (tests assert cache reuse across requests).
  std::size_t faultCacheHits() const { return faultCache_.hits(); }
  std::size_t faultCacheSize() const { return faultCache_.size(); }

 private:
  WireReply execute(const WireRequest& wq);

  bool enactProcessFaults_;
  service::FaultModelCache faultCache_;
  std::vector<std::unique_ptr<core::StreamArena>> arenaPool_;
  WorkerFault armedFault_ = WorkerFault::None;  ///< fires on next Execute
  WorkerFault postAction_ = WorkerFault::None;  ///< fired, process-level
};

/// The deterministic junk frame a `GarbageReply` fault emits (exposed so
/// tests can assert the coordinator rejects exactly this frame).  Framing
/// stays aligned — the junk is length-prefixed like any reply — but its
/// content fails decodeReply's magic check.
std::vector<std::uint8_t> garbageReplyFrame();

/// Subprocess entry point: serve length-prefixed frames from \p fd until
/// EOF (coordinator closed the socket) or a fatal I/O error.  Returns the
/// process exit code (0 on clean EOF).  Called in the fork()ed child of
/// every process channel (transport.hpp); never returns on a fired crash
/// or hang fault (`_exit(43)` / wedged until SIGKILL).
int shardWorkerMain(int fd);

}  // namespace aimsc::shard
