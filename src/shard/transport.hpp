/// \file transport.hpp
/// \brief Pluggable shard transports: a framed byte channel to one worker.
///
/// A `ShardChannel` moves opaque wire frames (see wire.hpp) between the
/// coordinator and ONE worker, preserving frame boundaries and order.
/// `makeShardChannels` builds them; two implementations ship:
///
///  * `LoopbackChannel` — an in-process worker behind the same codec path
///    (every byte still round-trips through encode/decode, so loopback runs
///    exercise the full wire contract without a process boundary);
///  * a process channel (`ShardTransportKind::Subprocess`) — a `fork()`ed
///    worker over a `socketpair(AF_UNIX, SOCK_STREAM)` with u32
///    length-prefixed framing: a REAL process boundary.
///
/// Process channels take `ChannelDeadlines`: send and recv are bounded by
/// `poll()`-based deadlines, so a wedged worker surfaces as
/// `ChannelTimeout` instead of blocking the coordinator forever — the hook
/// `ShardSupervisor` (supervisor.hpp) turns into kill-respawn-replay.
///
/// Failure semantics (docs/SHARDING.md): a dead or misbehaving worker
/// surfaces as `std::runtime_error` from send()/receive() — callers turn
/// that into a retry or an error ticket, never a hang.  A channel that has
/// hit a hard I/O error is poisoned (`healthy()` false) and keeps failing
/// fast; a timeout does NOT poison (the supervisor decides whether to kill
/// and respawn via `terminate()`).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace aimsc::shard {

/// Transport selector for `makeShardChannels` / `ServiceConfig`.
enum class ShardTransportKind : std::uint8_t {
  Subprocess,  ///< fork()ed worker per shard over a socketpair
  Loopback,    ///< in-process worker (same codec path, no fork)
};

/// Largest frame a channel will carry (a corrupt peer cannot make the
/// receiver allocate unboundedly).
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Deadline budget for one channel operation.  Zero disables the bound for
/// that operation (blocking I/O — workers waiting for their next request
/// use that form, see readFrame).
struct ChannelDeadlines {
  std::chrono::milliseconds send{2000};
  std::chrono::milliseconds recv{5000};
};

/// A deadline expired before the operation completed.  The worker may be
/// wedged, not dead: the channel is NOT poisoned — the caller chooses
/// between waiting again and `terminate()`.
class ChannelTimeout : public std::runtime_error {
 public:
  explicit ChannelTimeout(const std::string& what)
      : std::runtime_error(what) {}
};

/// One ordered, framed byte channel to one shard worker.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// Delivers one wire frame to the worker.  Throws ChannelTimeout when the
  /// send deadline expires, std::runtime_error if the worker is unreachable
  /// (dead process, closed socket, poisoned channel).
  virtual void send(std::span<const std::uint8_t> frame) = 0;

  /// Blocks for the worker's next reply frame.  Throws ChannelTimeout when
  /// the recv deadline expires (channel stays usable), std::runtime_error
  /// if the worker dies or misframes instead of replying.
  virtual std::vector<std::uint8_t> receive() = 0;

  /// Forcibly kills the backing worker (SIGKILL) and poisons the channel.
  /// The supervisor's answer to a hung worker; a no-op for loopback.
  virtual void terminate() {}

  /// The fd that turns readable when the reply to the last send() (or EOF)
  /// arrives, for `poll()`; -1 when a reply is ready as soon as send()
  /// returns (loopback) or the channel is poisoned.
  virtual int pollFd() const { return -1; }

  /// How long a reply may take after its send() (zero = unbounded).
  virtual std::chrono::milliseconds recvDeadline() const {
    return std::chrono::milliseconds{0};
  }

  /// Pid of the backing worker process, -1 when in-process (chaos tests
  /// kill -9 through this).
  virtual int workerPid() const { return -1; }

  /// False once the channel has hit a hard failure (poisoned).
  virtual bool healthy() const { return true; }
};

/// In-process worker: send() serves the frame immediately through a
/// `ShardWorker` and queues the reply for receive().  The worker's warm
/// state (fault-model cache, arena pool) persists across frames exactly as
/// a subprocess worker's does.
class LoopbackChannel final : public ShardChannel {
 public:
  LoopbackChannel();
  ~LoopbackChannel() override;

  void send(std::span<const std::uint8_t> frame) override;
  std::vector<std::uint8_t> receive() override;

 private:
  struct Impl;  ///< owns the ShardWorker (kept out of this header)
  std::unique_ptr<Impl> impl_;
  std::deque<std::vector<std::uint8_t>> replies_;
};

/// Builds \p count channels of \p kind (the coordinator's worker set).
/// Process channels fork their workers here, so call this before the
/// parent spawns threads (AcceleratorService does); the destructor of a
/// process channel closes its socket (the worker sees EOF and exits) and
/// reaps the child.
std::vector<std::unique_ptr<ShardChannel>> makeShardChannels(
    ShardTransportKind kind, std::size_t count,
    ChannelDeadlines deadlines = {});

/// Outcome of one framed read or write.
enum class IoResult : std::uint8_t {
  Ok,
  Closed,   ///< EOF, a hard error, or an oversized length prefix
  Timeout,  ///< the deadline expired first (never at a zero deadline)
};

/// u32-length-framed I/O over a POSIX fd — both ends of the process
/// channel: the coordinator's `FdChannel` with its `ChannelDeadlines`, the
/// worker's serve loop with a zero deadline.  A positive \p deadline bounds
/// the whole frame: each transfer waits in `poll()` against it.  A zero
/// deadline blocks in recv/send directly (no poll, no clock read).
/// writeFrame suppresses SIGPIPE, so a vanished peer reads as `Closed`.
IoResult readFrame(int fd, std::vector<std::uint8_t>& frame,
                   std::chrono::milliseconds deadline);
IoResult writeFrame(int fd, std::span<const std::uint8_t> frame,
                    std::chrono::milliseconds deadline);

}  // namespace aimsc::shard
