#include "shard/transport.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "shard/worker.hpp"

namespace aimsc::shard {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Parent-side fds of every live process-backed channel.  A newly fork()ed
/// worker inherits copies of these and MUST close them: otherwise it holds
/// a sibling's socket write-end open, that sibling never sees EOF when its
/// channel closes, and shutdown deadlocks in waitpid.  The mutex orders
/// every change to the parent's socket fds against every fork: a spawn
/// holds it from socketpair through fork to registering its end, and a
/// channel holds it while it unregisters and closes its fd, so a worker
/// forked on another thread never inherits an fd the list misses.  The
/// child iterates its fork-time copy without locking (it is
/// single-threaded).
std::mutex parentFdsMutex;
std::vector<int>& liveParentFds() {
  static std::vector<int> fds;
  return fds;
}

/// Unregisters and closes \p fd in one step against concurrent spawns.
void closeParentFd(int fd) {
  std::lock_guard<std::mutex> lock(parentFdsMutex);
  auto& fds = liveParentFds();
  fds.erase(std::remove(fds.begin(), fds.end(), fd), fds.end());
  ::close(fd);
}

void closeInheritedParentFds() {
  for (const int inherited : liveParentFds()) ::close(inherited);
}

/// An absolute frame deadline; nullopt blocks.
using Deadline = std::optional<SteadyClock::time_point>;

Deadline deadlineAfter(std::chrono::milliseconds budget) {
  if (budget.count() <= 0) return std::nullopt;
  return SteadyClock::now() + budget;
}

/// Remaining milliseconds until \p deadline for poll(), clamped to >= 1 so
/// a deadline a few microseconds away still polls instead of spinning.
int pollBudgetMs(SteadyClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - SteadyClock::now());
  return static_cast<int>(std::clamp<long long>(left.count(), 1, 0x7fffffff));
}

/// Waits until \p fd is ready for \p events or \p limit passes.  Without a
/// deadline it returns Ok at once: the caller's recv/send blocks instead.
IoResult awaitReady(int fd, short events, const Deadline& limit) {
  if (!limit) return IoResult::Ok;
  for (;;) {
    if (SteadyClock::now() >= *limit) return IoResult::Timeout;
    struct pollfd p = {fd, events, 0};
    const int pr = ::poll(&p, 1, pollBudgetMs(*limit));
    if (pr > 0) return IoResult::Ok;
    if (pr == 0) return IoResult::Timeout;
    if (errno != EINTR) return IoResult::Closed;
  }
}

IoResult readFully(int fd, std::uint8_t* buf, std::size_t n,
                   const Deadline& limit) {
  std::size_t got = 0;
  while (got < n) {
    const IoResult ready = awaitReady(fd, POLLIN, limit);
    if (ready != IoResult::Ok) return ready;
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r <= 0) {
      if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return IoResult::Closed;  // EOF or hard error
    }
    got += static_cast<std::size_t>(r);
  }
  return IoResult::Ok;
}

IoResult writeFully(int fd, const std::uint8_t* buf, std::size_t n,
                    const Deadline& limit) {
  // MSG_NOSIGNAL: a dead peer yields EPIPE here instead of killing the
  // process with SIGPIPE — the caller turns it into an error ticket.  Under
  // a deadline, MSG_DONTWAIT too: a blocking send waits until ALL its bytes
  // fit in the socket buffer, which a peer that stopped reading never
  // allows; a non-blocking one takes what fits and the loop polls again.
  const int flags = MSG_NOSIGNAL | (limit ? MSG_DONTWAIT : 0);
  std::size_t sent = 0;
  while (sent < n) {
    const IoResult ready = awaitReady(fd, POLLOUT, limit);
    if (ready != IoResult::Ok) return ready;
    const ssize_t r = ::send(fd, buf + sent, n - sent, flags);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return IoResult::Closed;
    }
    sent += static_cast<std::size_t>(r);
  }
  return IoResult::Ok;
}

void encodeLen(std::uint32_t n, std::uint8_t len[4]) {
  for (int i = 0; i < 4; ++i) len[i] = (n >> (8 * i)) & 0xff;
}

std::uint32_t decodeLen(const std::uint8_t len[4]) {
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(len[i]) << (8 * i);
  return n;
}

}  // namespace

IoResult readFrame(int fd, std::vector<std::uint8_t>& frame,
                   std::chrono::milliseconds deadline) {
  const Deadline limit = deadlineAfter(deadline);
  std::uint8_t len[4];
  const IoResult r = readFully(fd, len, sizeof(len), limit);
  if (r != IoResult::Ok) return r;
  const std::uint32_t n = decodeLen(len);
  if (n > kMaxFrameBytes) return IoResult::Closed;
  frame.resize(n);
  return n == 0 ? IoResult::Ok : readFully(fd, frame.data(), n, limit);
}

IoResult writeFrame(int fd, std::span<const std::uint8_t> frame,
                    std::chrono::milliseconds deadline) {
  if (frame.size() > kMaxFrameBytes) return IoResult::Closed;
  const Deadline limit = deadlineAfter(deadline);
  std::uint8_t len[4];
  encodeLen(static_cast<std::uint32_t>(frame.size()), len);
  const IoResult r = writeFully(fd, len, sizeof(len), limit);
  if (r != IoResult::Ok) return r;
  return frame.empty() ? IoResult::Ok
                       : writeFully(fd, frame.data(), frame.size(), limit);
}

struct LoopbackChannel::Impl {
  ShardWorker worker{/*enactProcessFaults=*/false};
};

LoopbackChannel::LoopbackChannel() : impl_(std::make_unique<Impl>()) {}
LoopbackChannel::~LoopbackChannel() = default;

void LoopbackChannel::send(std::span<const std::uint8_t> frame) {
  std::vector<std::uint8_t> reply = impl_->worker.serve(frame);
  // Reply-less frames (Misbehave arming) queue nothing, mirroring the
  // subprocess worker's silent arm.
  if (!reply.empty()) replies_.push_back(std::move(reply));
}

std::vector<std::uint8_t> LoopbackChannel::receive() {
  if (replies_.empty()) {
    throw std::runtime_error("LoopbackChannel: receive() with no pending reply");
  }
  std::vector<std::uint8_t> reply = std::move(replies_.front());
  replies_.pop_front();
  return reply;
}

namespace {

/// A fork()ed worker process over a connected stream socket (made by
/// spawnSocketpairWorker).  SHOULD be built before
/// the parent spawns threads (fork-safety); AcceleratorService orders its
/// members so the initial coordinator forks ahead of the worker pool.
/// (Supervisor respawns fork later by necessity — glibc's fork handlers
/// make the child's allocator usable, and the child only runs the
/// self-contained worker loop.)  The destructor closes the socket (the
/// worker sees EOF and exits) and reaps the child.
class FdChannel final : public ShardChannel {
 public:
  FdChannel(int fd, int pid, ChannelDeadlines deadlines)
      : deadlines_(deadlines), fd_(fd), pid_(pid) {}

  ~FdChannel() override {
    if (fd_ >= 0) closeParentFd(fd_);  // worker sees EOF and exits cleanly
    if (pid_ > 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  FdChannel(const FdChannel&) = delete;
  FdChannel& operator=(const FdChannel&) = delete;

  void send(std::span<const std::uint8_t> frame) override {
    if (poisoned_) poison("worker previously failed");
    switch (writeFrame(fd_, frame, deadlines_.send)) {
      case IoResult::Ok:
        return;
      case IoResult::Timeout:
        // A partial frame may be in flight: the stream is suspect but the
        // worker may only be slow.  Not poisoned; the supervisor decides.
        throw ChannelTimeout("shard channel: send deadline expired");
      case IoResult::Closed:
        break;
    }
    poison("worker unreachable (send failed)");
  }

  std::vector<std::uint8_t> receive() override {
    if (poisoned_) poison("worker previously failed");
    std::vector<std::uint8_t> frame;
    switch (readFrame(fd_, frame, deadlines_.recv)) {
      case IoResult::Ok:
        return frame;
      case IoResult::Timeout:
        throw ChannelTimeout("shard channel: recv deadline expired");
      case IoResult::Closed:
        break;
    }
    poison("worker died before replying");
  }

  void terminate() override {
    poisoned_ = true;
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (fd_ >= 0) {
      closeParentFd(fd_);
      fd_ = -1;
    }
  }

  int pollFd() const override { return poisoned_ ? -1 : fd_; }
  std::chrono::milliseconds recvDeadline() const override {
    return deadlines_.recv;
  }
  int workerPid() const override { return pid_; }
  bool healthy() const override { return !poisoned_; }

 private:
  [[noreturn]] void poison(const char* what) {
    poisoned_ = true;
    throw std::runtime_error(std::string("shard channel: ") + what);
  }

  ChannelDeadlines deadlines_;
  int fd_ = -1;
  int pid_ = -1;
  bool poisoned_ = false;
};

/// Forks a worker over a socketpair(AF_UNIX, SOCK_STREAM).
std::unique_ptr<ShardChannel> spawnSocketpairWorker(
    ChannelDeadlines deadlines) {
  int fds[2];
  pid_t pid = -1;
  {
    // Held until the pair's parent end is registered and the child end
    // closed: a fork on another thread in between would copy both ends into
    // a sibling worker, and this worker would never see EOF.
    std::lock_guard<std::mutex> lock(parentFdsMutex);
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("spawnSocketpairWorker: socketpair failed");
    }
    pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("spawnSocketpairWorker: fork failed");
    }
    if (pid == 0) {
      // Worker child: serve frames until the parent closes its end.  _exit,
      // never return — unwinding into a fork()ed copy of the parent's state
      // (atexit handlers, buffered streams) must not happen.
      closeInheritedParentFds();
      ::close(fds[0]);
      ::_exit(shardWorkerMain(fds[1]));
    }
    ::close(fds[1]);
    liveParentFds().push_back(fds[0]);
  }
  return std::make_unique<FdChannel>(fds[0], pid, deadlines);
}

}  // namespace

std::vector<std::unique_ptr<ShardChannel>> makeShardChannels(
    ShardTransportKind kind, std::size_t count, ChannelDeadlines deadlines) {
  std::vector<std::unique_ptr<ShardChannel>> channels;
  channels.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (kind) {
      case ShardTransportKind::Subprocess:
        channels.push_back(spawnSocketpairWorker(deadlines));
        break;
      case ShardTransportKind::Loopback:
        channels.push_back(std::make_unique<LoopbackChannel>());
        break;
    }
  }
  return channels;
}

}  // namespace aimsc::shard
