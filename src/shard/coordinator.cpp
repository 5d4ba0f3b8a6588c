#include "shard/coordinator.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace aimsc::shard {

namespace {

using Clock = std::chrono::steady_clock;

void validateShape(std::size_t lanes, std::size_t rowsPerTile) {
  if (lanes == 0 || rowsPerTile == 0) {
    throw std::invalid_argument("ShardCoordinator: zero-sized fleet shape");
  }
}

/// What poll() may wait for \p due: -1 (forever) at `time_point::max()`,
/// else the milliseconds left, rounded up so it never wakes just short of
/// the deadline and spins.
int pollTimeoutMs(Clock::time_point due) {
  if (due == Clock::time_point::max()) return -1;
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(due - Clock::now());
  return static_cast<int>(std::clamp<long long>(left.count(), 0, 0x7fffffff));
}

}  // namespace

/// One replica in flight: its request, and the replies of its frames as
/// they land.
struct ShardCoordinator::Job {
  WireRequest wire;  ///< a frame is this with its slot's lane assignment
  service::OutputShape shape;
  std::vector<WireReply> replies;  ///< one per active shard
  std::size_t left = 0;            ///< frames not landed yet
  bool degraded = false;
  std::string error;  ///< the first failure
  ReplicaDone done;
};

ShardCoordinator::ShardCoordinator(std::unique_ptr<ShardSupervisor> fabric,
                                   std::size_t lanes, std::size_t rowsPerTile)
    : fabric_(std::move(fabric)), lanes_(lanes), rowsPerTile_(rowsPerTile) {
  if (fabric_ == nullptr) {
    throw std::invalid_argument("ShardCoordinator: null fabric");
  }
  validateShape(lanes_, rowsPerTile_);
  queues_.resize(fabric_->shardCount());
  wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeFd_ < 0) throw std::runtime_error("ShardCoordinator: eventfd failed");
}

ShardCoordinator::ShardCoordinator(
    std::vector<std::unique_ptr<ShardChannel>> channels, std::size_t lanes,
    std::size_t rowsPerTile)
    : ShardCoordinator(
          std::make_unique<ShardSupervisor>(std::move(channels),
                                            ShardSupervisor::ChannelFactory{}),
          lanes, rowsPerTile) {}

ShardCoordinator::~ShardCoordinator() { ::close(wakeFd_); }

void ShardCoordinator::submit(const service::Request& q,
                              service::TenantId tenant,
                              std::uint64_t seedNamespace,
                              std::uint64_t replicaSeed, ReplicaDone done) {
  // Surplus shards idle: a lane is the indivisible unit of work, so at
  // most `lanes` shards can own one.  (Idle shards still stand in for dead
  // ones.)
  const std::size_t active = std::min(fabric_->shardCount(), lanes_);
  auto job = std::make_shared<Job>();
  job->shape = service::outputShapeFor(q);
  TileAssignment assignment;
  assignment.laneSeedBase = replicaSeed;
  assignment.laneStride = static_cast<std::uint32_t>(active);
  assignment.rowBegin = 0;
  assignment.rowEnd = static_cast<std::uint32_t>(job->shape.height);
  job->wire = makeWireRequest(q, tenant, seedNamespace, replicaSeed,
                              static_cast<std::uint32_t>(lanes_),
                              static_cast<std::uint32_t>(rowsPerTile_),
                              assignment);
  job->replies.resize(active);
  job->left = active;
  job->done = std::move(done);
  for (std::size_t s = 0; s < active; ++s) {
    Frame f;
    f.job = job;
    f.slot = s;
    place(std::move(f), s, "no live shard remains");
  }
}

void ShardCoordinator::pump() {
  for (std::size_t s = 0; s < queues_.size(); ++s) startNext(s);
  // Encode each shard's next frame while its current one runs, so a worker
  // whose reply lands waits for no encode.
  for (ShardQueue& sq : queues_) {
    if (!sq.queued.empty()) encode(sq.queued.front());
  }

  // Wait on the wake fd and every busy shard's channel, at most until the
  // earliest reply deadline.  A busy shard with nothing to poll (a loopback
  // reply, a failed send) is ready now.
  std::vector<pollfd> fds{{wakeFd_, POLLIN, 0}};
  std::vector<std::size_t> busy;
  std::vector<std::size_t> at;  ///< busy[i]'s index in fds; 0 = ready now
  Clock::time_point due = Clock::time_point::max();
  bool readyNow = false;
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    if (!queues_[s].inflight) continue;
    busy.push_back(s);
    const int fd = fabric_->pollFd(s);
    if (fd < 0) {
      readyNow = true;
      at.push_back(0);
      continue;
    }
    at.push_back(fds.size());
    fds.push_back({fd, POLLIN, 0});
    due = std::min(due, fabric_->replyDue(s));
  }
  // On EINTR every revents stays 0: nothing is ready, deadlines still fire.
  ::poll(fds.data(), fds.size(), readyNow ? 0 : pollTimeoutMs(due));
  if (fds[0].revents != 0) {
    std::uint64_t wakes = 0;
    [[maybe_unused]] const ssize_t n = ::read(wakeFd_, &wakes, sizeof wakes);
  }

  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < busy.size(); ++i) {
    const std::size_t s = busy[i];
    const bool ready = at[i] == 0 || fds[at[i]].revents != 0;
    const bool overdue = !ready && now >= fabric_->replyDue(s);
    if (ready || overdue) collect(s, overdue);
  }
}

void ShardCoordinator::wake() {
  const std::uint64_t one = 1;
  // Only a saturated counter fails, and that leaves the fd readable anyway.
  [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof one);
}

ShardCoordinator::ReplicaRun ShardCoordinator::runReplica(
    const service::Request& q, service::TenantId tenant,
    std::uint64_t seedNamespace, std::uint64_t replicaSeed) {
  std::optional<ReplicaRun> result;
  std::string error;
  submit(q, tenant, seedNamespace, replicaSeed,
         [&](ReplicaRun&& run, const std::string& e) {
           result = std::move(run);
           error = e;
         });
  while (!result) pump();
  if (!error.empty()) throw std::runtime_error(error);
  return std::move(*result);
}

void ShardCoordinator::place(Frame f, std::size_t s, const std::string& why) {
  if (fabric_->dead(s)) {
    s = 0;
    while (s < queues_.size() && fabric_->dead(s)) ++s;
    if (s == queues_.size()) {
      land(std::move(f), {}, "shard fabric exhausted: " + why);
      return;
    }
    f.rerouted = true;
    f.job->degraded = true;
  }
  queues_[s].queued.push_back(std::move(f));
}

void ShardCoordinator::startNext(std::size_t s) {
  ShardQueue& sq = queues_[s];
  if (sq.inflight || sq.queued.empty() || fabric_->dead(s)) return;
  sq.inflight = std::move(sq.queued.front());
  sq.queued.pop_front();
  encode(*sq.inflight);
  fabric_->start(s, sq.inflight->bytes);  // copy: the original is kept
}

void ShardCoordinator::encode(Frame& f) {
  // Encoded once and KEPT until its reply lands: a dead shard's frame moves
  // verbatim to a survivor, which is what makes degraded output
  // byte-identical (the frame carries the full lane assignment and all
  // seeds — worker identity never touches the bits).
  if (!f.bytes.empty()) return;
  f.job->wire.assignment.laneBegin = static_cast<std::uint32_t>(f.slot);
  f.bytes = encodeRequest(f.job->wire);
}

void ShardCoordinator::collect(std::size_t s, bool overdue) {
  std::optional<WireReply> reply;
  try {
    reply = fabric_->collect(s, overdue);
  } catch (const ShardDead& e) {
    reroute(s, e.what());
    return;
  }
  if (!reply) return;  // recovering: the same frame is in flight again
  Frame f = std::move(*queues_[s].inflight);
  queues_[s].inflight.reset();
  startNext(s);  // feed the worker before merging
  land(std::move(f), std::move(*reply), {});
}

void ShardCoordinator::reroute(std::size_t s, const std::string& why) {
  std::deque<Frame> orphans = std::move(queues_[s].queued);
  queues_[s].queued.clear();
  if (queues_[s].inflight) {
    orphans.push_front(std::move(*queues_[s].inflight));
    queues_[s].inflight.reset();
  }
  for (Frame& f : orphans) place(std::move(f), s, why);
}

void ShardCoordinator::land(Frame f, WireReply reply,
                            const std::string& error) {
  Job& job = *f.job;
  if (!error.empty()) {
    if (job.error.empty()) job.error = error;
  } else {
    if (f.rerouted) ++reassigned_;
    job.replies[f.slot] = std::move(reply);
  }
  if (--job.left != 0) return;
  ReplicaRun run;
  std::string failure = job.error;
  if (failure.empty()) {
    try {
      run = merge(job);
    } catch (const std::exception& e) {
      failure = e.what();
    }
  }
  if (failure.empty() && job.degraded) ++degradedReplicas_;
  job.done(std::move(run), failure);
}

ShardCoordinator::ReplicaRun ShardCoordinator::merge(const Job& job) const {
  const service::OutputShape& shape = job.shape;
  // Merge row segments into the full image, verifying every row lands
  // exactly once, and sum the per-lane ledgers, verifying every lane
  // bills exactly once — degraded or not, the contract is identical.
  ReplicaRun run;
  run.degraded = job.degraded;
  run.pixels.assign(shape.width * shape.height, 0);
  std::vector<std::uint8_t> rowSeen(shape.height, 0);
  std::vector<std::uint8_t> laneSeen(lanes_, 0);
  for (std::size_t s = 0; s < job.replies.size(); ++s) {
    const WireReply& reply = job.replies[s];
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
