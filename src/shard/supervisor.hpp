/// \file supervisor.hpp
/// \brief Worker lifecycle supervision: deadlines, retry with exponential
///        backoff + deterministic jitter, bounded respawn.
///
/// The `ShardSupervisor` sits between the coordinator and the raw
/// `ShardChannel`s and upgrades PR-8's "error, not hang" failure story to
/// "recover, then degrade, then error".  Per shard it runs the state
/// machine documented in docs/SHARDING.md:
///
///   healthy --fault--> retrying --respawn ok--> healthy
///                        |  (attempts / respawns / deadline exhausted)
///                        v
///                       dead  -> coordinator re-dispatches the shard's
///                                frames to survivors (degraded mode)
///
/// **Replay is byte-identical.**  The supervisor keeps every in-flight
/// frame; recovery respawns the worker and resends the SAME bytes.  A
/// worker's output is a pure function of the frame (lane seeds, assignment
/// and fleet shape all travel in it; warm state is bit-preserving), so a
/// replayed request produces the reply the original would have — the PR-8
/// determinism contract extends over crashes.
///
/// **Retries are fault-free.**  The `ShardFaultPlan` is consulted only in
/// `start()`; `collect()`'s recovery steps never re-inject, so chaos runs
/// converge within the retry budget unless the environment genuinely keeps
/// killing workers.
///
/// The start()/collect() split serves the coordinator's event loop
/// (coordinator.hpp), which keeps one frame in flight on every shard and
/// waits on them all at once: collect() runs only once a reply is readable
/// or overdue, and a recovery step holds the loop only for its backoff,
/// respawn and resend.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "shard/fault_plan.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"

namespace aimsc::shard {

/// Retry/respawn budgets.  Backoff for retry r (1-based) is
/// `min(initialBackoff * 2^(r-1), maxBackoff)` plus a deterministic jitter
/// in [0, backoff/2] keyed by (a fixed seed, shard, dispatch, r) — no
/// wall-clock randomness, so two identical chaos runs sleep identically.
struct RetryPolicy {
  std::uint32_t maxAttempts = 4;  ///< original + up to 3 retries
  std::uint32_t maxRespawns = 8;  ///< per shard, lifetime budget
  std::chrono::milliseconds initialBackoff{2};
  std::chrono::milliseconds maxBackoff{250};
  std::chrono::milliseconds totalDeadline{15000};  ///< per dispatch
};

/// Fabric-level counters (merged into ServiceStats by the service layer).
struct FabricStats {
  std::uint64_t retries = 0;         ///< frames resent after a failure
  std::uint64_t respawns = 0;        ///< workers killed and restarted
  std::uint64_t timeouts = 0;        ///< channel deadline expiries
  std::uint64_t garbageReplies = 0;  ///< frames that failed decodeReply
  std::uint64_t faultsInjected = 0;  ///< ShardFaultPlan strikes
  std::uint64_t deadShards = 0;      ///< shards declared dead (ever)
};

/// A shard exhausted its retry/respawn/deadline budget and is dead.  The
/// coordinator catches this and re-dispatches the dead shard's frames to a
/// survivor (graceful degradation); a caller with no survivors left
/// propagates it as the request error.
class ShardDead : public std::runtime_error {
 public:
  ShardDead(std::size_t shard, const std::string& why)
      : std::runtime_error("shard " + std::to_string(shard) +
                           " is dead: " + why),
        shard_(shard) {}
  std::size_t shard() const { return shard_; }

 private:
  std::size_t shard_;
};

class ShardSupervisor {
 public:
  /// Builds a fresh replacement channel when a worker must be respawned.
  /// A null factory disables respawning: after the attempt budget the
  /// shard is declared dead (loopback fabrics can still retry in place).
  using ChannelFactory = std::function<std::unique_ptr<ShardChannel>()>;

  ShardSupervisor(std::vector<std::unique_ptr<ShardChannel>> channels,
                  ChannelFactory respawn, RetryPolicy policy = {},
                  ShardFaultPlan faults = {});

  std::size_t shardCount() const { return shards_.size(); }
  bool dead(std::size_t shard) const { return shards_.at(shard).dead; }
  const FabricStats& stats() const { return stats_; }
  const RetryPolicy& policy() const { return policy_; }

  /// Dispatches \p frame to \p shard: evaluates the fault plan, stores the
  /// frame for replay, sends.  Never blocks on recovery — a failed send is
  /// recorded and handled in collect().  Throws ShardDead only if the
  /// shard is already dead (callers check dead() first).
  void start(std::size_t shard, std::vector<std::uint8_t> frame);

  /// What to poll for \p shard's in-flight reply: its channel's pollFd(),
  /// or -1 when collect() may run at once (a loopback reply, or a failed
  /// send that awaits recovery).
  int pollFd(std::size_t shard) const;

  /// When the recv deadline of \p shard's current attempt, counted from its
  /// send, expires (`time_point::max()` when unbounded).
  std::chrono::steady_clock::time_point replyDue(std::size_t shard) const;

  /// Collects \p shard's in-flight reply once pollFd() is readable (or
  /// -1), or — with \p overdue — once replyDue() passed without one.  An
  /// `ok == false` reply is returned as-is: it is a deterministic execution
  /// failure and replaying the frame would yield the same bytes.  A
  /// timeout, garbage or a dead worker instead runs one recovery step —
  /// kill, backoff, respawn, byte-identical resend — and returns nullopt
  /// with the frame in flight again.  Past the attempt, respawn or total
  /// deadline budget the shard is marked dead and ShardDead is thrown.
  std::optional<WireReply> collect(std::size_t shard, bool overdue);

  /// The live channel behind \p shard (single-threaded introspection only;
  /// NOT for sending — that would desync the frame pairing).
  ShardChannel& channel(std::size_t shard) {
    return *shards_.at(shard).channel;
  }

  /// Thread-safe snapshot of the shard's current worker pid (-1 for
  /// in-process workers or dead shards).  The ONE supervisor entry point
  /// that may be called from another thread — chaos tests' kill -9 threads
  /// read it while the dispatcher thread is mid-respawn, when touching
  /// channel() would race the unique_ptr swap.
  int workerPid(std::size_t shard) const {
    return shards_.at(shard).pid->load(std::memory_order_relaxed);
  }

 private:
  struct ShardState {
    std::unique_ptr<ShardChannel> channel;
    /// Concurrent-read pid mirror of `channel` (see workerPid()); behind a
    /// unique_ptr so ShardState stays movable.
    std::unique_ptr<std::atomic<int>> pid =
        std::make_unique<std::atomic<int>>(-1);
    std::vector<std::uint8_t> inflight;
    bool hasInflight = false;
    bool needRecovery = false;  ///< send failed / fault enacted pre-reply
    std::uint64_t dispatches = 0;
    std::uint64_t currentDispatch = 0;
    std::uint32_t attempt = 1;  ///< of the in-flight dispatch, 1-based
    std::uint32_t respawns = 0;
    bool dead = false;
    std::chrono::steady_clock::time_point dispatchStart;
    std::chrono::steady_clock::time_point sentAt;  ///< current attempt
  };

  /// Recovery after a failed attempt (\p why): retries until a resend goes
  /// out, or marks the shard dead and throws ShardDead.
  void recover(std::size_t shard, std::string why);
  [[nodiscard]] bool respawn(std::size_t shard);
  void markDead(std::size_t shard);
  std::chrono::milliseconds backoffFor(std::size_t shard, const ShardState& st,
                                       std::uint32_t retry) const;

  std::vector<ShardState> shards_;
  ChannelFactory respawn_;
  RetryPolicy policy_;
  ShardFaultPlan faults_;
  FabricStats stats_;
};

/// Spawns \p count workers of \p kind under a supervisor whose respawn
/// factory creates more of the same (the standard fabric construction).
std::unique_ptr<ShardSupervisor> makeSupervisedFabric(
    ShardTransportKind kind, std::size_t count, ChannelDeadlines deadlines = {},
    RetryPolicy policy = {}, ShardFaultPlan faults = {});

}  // namespace aimsc::shard
