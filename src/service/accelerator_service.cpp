#include "service/accelerator_service.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <stdexcept>
#include <utility>

#include "apps/schedule.hpp"
#include "core/tile_executor.hpp"
#include "reliability/fault_rng.hpp"
#include "service/request_kernels.hpp"
#include "shard/coordinator.hpp"

namespace aimsc::service {

namespace {

using Clock = std::chrono::steady_clock;

double microsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

const ServiceConfig& validated(const ServiceConfig& config) {
  if (config.lanes == 0 || config.rowsPerTile == 0 || config.maxBatch == 0 ||
      config.queueCapacity == 0) {
    throw std::invalid_argument("ServiceConfig: zero-sized knob");
  }
  return config;
}

/// Builds the shard fan-out when configured.  Runs in the member-init list
/// BEFORE the worker pool / dispatcher threads exist: fork()ing subprocess
/// workers from a multi-threaded parent would be unsafe.
std::unique_ptr<shard::ShardCoordinator> makeCoordinator(
    const ServiceConfig& config) {
  if (config.shards == 0) return nullptr;
  return std::make_unique<shard::ShardCoordinator>(
      shard::makeSupervisedFabric(config.shardTransport, config.shards,
                                  config.shardDeadlines, config.shardRetry,
                                  config.shardFaults),
      config.lanes, config.rowsPerTile);
}

/// The request seed inside tenant namespace \p ns (0 = identity).
std::uint64_t namespacedSeed(std::uint64_t ns, std::uint64_t seed) {
  if (ns == 0) return seed;
  // Re-key through the mixer so tenant universes never collide with each
  // other or with the lane/replica seed strides.
  return reliability::mix64(ns ^ (seed + 0x9e3779b97f4a7c15ull));
}

}  // namespace

/// One replica of an in-process request: its lane fleet, the app schedule
/// running on it, and the lane tasks of its current stage still running.
struct AcceleratorService::Replica {
  Replica(std::unique_ptr<core::TileExecutor> f, const apps::AppFrames& frames)
      : fleet(std::move(f)), run(frames) {}

  std::unique_ptr<core::TileExecutor> fleet;
  apps::StagedRun run;
  std::atomic<std::size_t> lanesLeft{0};
};

/// Everything one queued request carries through the pipeline.  The frame
/// views alias client memory; replica images are service-owned staging
/// that dies with the request (the voted bytes leave through `request.out`).
struct AcceleratorService::Pending {
  TenantId tenant = 0;
  Request request;
  std::uint64_t seedNamespace = 0;
  std::uint64_t effectiveSeed = 0;
  std::uint64_t id = 0;
  Clock::time_point submitTime;
  Clock::time_point admitTime;
  std::size_t batchSize = 1;  ///< requests admitted together with this one

  // In-process execution state.  A deque builds each replica in place and
  // never moves it, so lane tasks may hold a Replica& until the request
  // completes.  The lane tasks and the completion synchronize through the
  // counters alone (acq_rel), never through a service lock.
  std::deque<Replica> replicas;
  std::atomic<std::size_t> replicasLeft{0};
  std::atomic<bool> failed{false};
  std::string failure;  ///< written once, by whoever set `failed`

  // What the join reads: one output per replica (in replica order) and
  // their summed ledgers.  The sharded back-end fills them on the
  // dispatcher thread as replicas merge, the in-process one at completion.
  std::vector<std::vector<std::uint8_t>> outputs;
  RequestResult totals;

  // Completion (guarded by the service ticket mutex).
  bool done = false;
  std::string error;
  RequestResult result;

  void recordFailure(const std::string& what) {
    if (!failed.exchange(true)) failure = what;
  }

  /// Stamps the serving metadata at the request's own resolution.
  void stamp(RequestResult& res) const {
    res.queueMicros = microsSince(submitTime, admitTime);
    res.execMicros = microsSince(admitTime, Clock::now());
    res.batchSize = batchSize;
  }
};

AcceleratorService::AcceleratorService(const ServiceConfig& config)
    : config_(validated(config)),
      queue_(config.queueCapacity),
      coordinator_(makeCoordinator(config_)),
      pool_(config.workerThreads),
      paused_(config.startPaused) {
  dispatcher_ = std::thread([this] { dispatchLoop(); });
}

AcceleratorService::~AcceleratorService() { shutdown(); }

std::shared_ptr<AcceleratorService::Pending> AcceleratorService::makePending(
    TenantId tenant, const Request& request) {
  auto p = std::make_shared<Pending>();
  p->tenant = tenant;
  p->request = request;
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    const auto it = ledgers_.find(tenant);
    if (it != ledgers_.end()) p->seedNamespace = it->second.seedNamespace;
  }
  p->effectiveSeed = namespacedSeed(p->seedNamespace, request.seed);
  p->submitTime = Clock::now();
  return p;
}

Ticket AcceleratorService::registerTicket(
    const std::shared_ptr<Pending>& pending) {
  std::lock_guard<std::mutex> lock(ticketMutex_);
  const std::uint64_t id = nextTicket_++;
  pending->id = id;
  tickets_.emplace(id, pending);
  return Ticket{id};
}

Ticket AcceleratorService::submit(TenantId tenant, const Request& request) {
  validateRequest(request);
  auto pending = makePending(tenant, request);
  const Ticket ticket = registerTicket(pending);
  if (!queue_.push(pending)) {
    std::lock_guard<std::mutex> lock(ticketMutex_);
    tickets_.erase(ticket.id);
    throw std::runtime_error("AcceleratorService: stopped");
  }
  if (coordinator_ != nullptr) coordinator_->wake();
  return ticket;
}

std::optional<Ticket> AcceleratorService::trySubmit(TenantId tenant,
                                                    const Request& request) {
  validateRequest(request);
  auto pending = makePending(tenant, request);
  const Ticket ticket = registerTicket(pending);
  if (!queue_.tryPush(pending)) {
    std::lock_guard<std::mutex> lock(ticketMutex_);
    tickets_.erase(ticket.id);
    return std::nullopt;
  }
  if (coordinator_ != nullptr) coordinator_->wake();
  return ticket;
}

bool AcceleratorService::poll(const Ticket& ticket) const {
  std::lock_guard<std::mutex> lock(ticketMutex_);
  const auto it = tickets_.find(ticket.id);
  return it == tickets_.end() || it->second->done;
}

std::optional<TicketOutcome> AcceleratorService::redeem(
    const Ticket& ticket, std::optional<std::chrono::microseconds> timeout) {
  std::shared_ptr<Pending> pending;
  {
    std::unique_lock<std::mutex> lock(ticketMutex_);
    const auto it = tickets_.find(ticket.id);
    if (it == tickets_.end()) {
      throw std::invalid_argument(
          "AcceleratorService: unknown or already-redeemed ticket");
    }
    pending = it->second;
    const auto resolved = [&] { return pending->done; };
    if (!timeout) {
      ticketCv_.wait(lock, resolved);
    } else if (!ticketCv_.wait_for(lock, *timeout, resolved)) {
      return std::nullopt;  // still pending; ticket stays redeemable
    }
    tickets_.erase(ticket.id);
  }
  TicketOutcome outcome;
  if (!pending->error.empty()) {
    outcome.status = TicketStatus::Failed;
    outcome.error = pending->error;
    return outcome;
  }
  outcome.result = pending->result;
  outcome.status = pending->result.degraded ? TicketStatus::Degraded
                                            : TicketStatus::Ok;
  return outcome;
}

TicketOutcome AcceleratorService::waitOutcome(const Ticket& ticket) {
  return *redeem(ticket, std::nullopt);
}

std::optional<TicketOutcome> AcceleratorService::waitOutcomeFor(
    const Ticket& ticket, std::chrono::microseconds timeout) {
  return redeem(ticket, timeout);
}

RequestResult AcceleratorService::run(TenantId tenant, const Request& request) {
  TicketOutcome outcome = waitOutcome(submit(tenant, request));
  if (outcome.status == TicketStatus::Failed) {
    throw std::runtime_error(outcome.error);
  }
  return outcome.result;
}

void AcceleratorService::setTenantSeedNamespace(TenantId tenant,
                                                std::uint64_t ns) {
  std::lock_guard<std::mutex> lock(statsMutex_);
  ledgers_[tenant].seedNamespace = ns;
}

TenantLedger AcceleratorService::tenantLedger(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  const auto it = ledgers_.find(tenant);
  return it == ledgers_.end() ? TenantLedger{} : it->second;
}

ServiceStats AcceleratorService::stats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  ServiceStats s = stats_;
  s.faultModelCacheHits = faultCache_.hits();
  s.faultModelCacheMisses = faultCache_.misses();
  s.faultModelCacheSize = faultCache_.size();
  return s;
}

void AcceleratorService::pause() {
  std::lock_guard<std::mutex> lock(dispatchMutex_);
  paused_ = true;
}

void AcceleratorService::resume() {
  {
    std::lock_guard<std::mutex> lock(dispatchMutex_);
    paused_ = false;
    dispatchCv_.notify_all();
  }
  if (coordinator_ != nullptr) coordinator_->wake();
}

void AcceleratorService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(dispatchMutex_);
    stopping_ = true;
    paused_ = false;  // a paused dispatcher must wake to drain
    dispatchCv_.notify_all();
  }
  queue_.close();
  if (coordinator_ != nullptr) coordinator_->wake();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The pool thread that resolved the last request may still be leaving its
  // task; no member may die before it has.
  pool_.wait();
}

void AcceleratorService::dispatchLoop() {
  if (coordinator_ != nullptr) {
    shardLoop();
    return;
  }
  for (;;) {
    std::size_t room = 0;
    {
      std::unique_lock<std::mutex> lock(dispatchMutex_);
      dispatchCv_.wait(lock, [this] {
        return (!paused_ || stopping_) && inFlight_ < config_.maxBatch;
      });
      room = config_.maxBatch - inFlight_;
    }
    auto batch = queue_.popBatch(room);
    if (batch.empty()) break;  // queue closed and drained
    admit(batch);
  }
  std::unique_lock<std::mutex> lock(dispatchMutex_);
  dispatchCv_.wait(lock, [this] { return inFlight_ == 0; });
}

void AcceleratorService::shardLoop() {
  // Writes to the wake fd are level-triggered: one that lands after a look
  // at the queue below makes the next pump() return at once, so no
  // submission is missed between the look and the wait.
  for (;;) {
    std::size_t room = 0;
    bool idleStop = false;
    {
      std::lock_guard<std::mutex> lock(dispatchMutex_);
      if (!paused_ || stopping_) room = config_.maxBatch - inFlight_;
      idleStop = stopping_ && inFlight_ == 0;
    }
    auto batch = queue_.tryPopBatch(room);
    if (!batch.empty()) {
      admit(batch);
    } else if (idleStop && queue_.drained()) {
      return;
    }
    coordinator_->pump();
  }
}

void AcceleratorService::admit(std::vector<std::shared_ptr<Pending>>& batch) {
  const auto admitted = Clock::now();
  countBatch(batch.size());
  for (auto& p : batch) {
    p->admitTime = admitted;
    p->batchSize = batch.size();
  }
  {
    std::lock_guard<std::mutex> lock(dispatchMutex_);
    inFlight_ += batch.size();
  }
  for (auto& p : batch) {
    if (coordinator_ != nullptr) {
      runOnShards(p);
    } else {
      start(p);
    }
  }
}

void AcceleratorService::runOnShards(const std::shared_ptr<Pending>& p) {
  const Request& q = p->request;
  const std::size_t replicas = std::max<std::size_t>(q.redundancy.replicas, 1);
  p->outputs.resize(replicas);
  // Counted before the first submit: with no live shard left, submit()
  // completes a replica on the spot.
  p->replicasLeft = replicas;
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto merged = [this, p, r](
                            shard::ShardCoordinator::ReplicaRun&& run,
                            const std::string& error) {
      if (!error.empty()) p->recordFailure(error);
      p->outputs[r] = std::move(run.pixels);
      p->totals.events += run.events;
      p->totals.opCount += run.opCount;
      p->totals.degraded = p->totals.degraded || run.degraded;
      if (p->replicasLeft.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        resolve(*p);
      }
    };
    try {
      coordinator_->submit(q, p->tenant, p->seedNamespace,
                           reliability::replicaSeed(p->effectiveSeed, r),
                           merged);
    } catch (const std::exception& e) {
      merged({}, e.what());
    }
  }
}

void AcceleratorService::start(const std::shared_ptr<Pending>& p) {
  const Request& q = p->request;
  const std::size_t replicas = std::max<std::size_t>(q.redundancy.replicas, 1);
  try {
    const ExecShape es{config_.lanes, config_.rowsPerTile};
    for (std::size_t r = 0; r < replicas; ++r) {
      p->replicas.emplace_back(
          makeRequestExecutor(es, q,
                              reliability::replicaSeed(p->effectiveSeed, r),
                              faultCache_),
          framesOf(q));
    }
  } catch (const std::exception& e) {
    p->replicas.clear();
    fail(*p, e.what());
    retire();
    return;
  }
  // Counted before the first submit: an inline pool runs the request to
  // completion inside the loop, and a threaded one may complete it before
  // the loop ends, so the loop must not touch `p` after its last submit.
  p->replicasLeft = replicas;
  for (std::size_t r = 0; r < replicas; ++r) {
    submitStage(p, p->replicas[r], 0);
  }
}

void AcceleratorService::submitStage(const std::shared_ptr<Pending>& p,
                                     Replica& rep, std::size_t s) {
  std::vector<std::function<void()>> tasks;
  try {
    // Never empty: admission refuses zero-row images.
    tasks = rep.run.laneTasks(*rep.fleet, s);
  } catch (const std::exception& e) {
    p->recordFailure(e.what());
    stageDone(p, rep, s);  // with the error recorded, retires the replica
    return;
  }
  rep.lanesLeft = tasks.size();
  for (auto& task : tasks) {
    pool_.submit([this, p, &rep, s, task = std::move(task)]() mutable {
      try {
        task();
      } catch (const std::exception& e) {
        p->recordFailure(e.what());
      } catch (...) {
        p->recordFailure("unknown lane failure");
      }
      task = nullptr;  // drop the lane closure before its fleet may be freed
      if (rep.lanesLeft.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        stageDone(p, rep, s);
      }
    });
  }
}

void AcceleratorService::stageDone(const std::shared_ptr<Pending>& p,
                                   Replica& rep, std::size_t s) {
  if (s + 1 < rep.run.stages() && !p->failed) {
    submitStage(p, rep, s + 1);
    return;
  }
  if (p->replicasLeft.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    complete(*p);
  }
}

void AcceleratorService::complete(Pending& p) {
  for (Replica& rep : p.replicas) {
    p.outputs.push_back(std::move(rep.run.output().pixels()));
    p.totals.events += rep.fleet->totalEvents();
    p.totals.opCount += rep.fleet->totalOpCount();
  }
  // Free the execution state before handing the result over.
  p.replicas.clear();
  resolve(p);
}

void AcceleratorService::resolve(Pending& p) {
  p.stamp(p.totals);
  if (p.failed) {
    fail(p, p.failure);
  } else {
    join(p);
  }
  retire();
}

void AcceleratorService::join(Pending& p) {
  const Request& q = p.request;
  // Moved out so the replica images die with the join.
  std::vector<std::vector<std::uint8_t>> outputs = std::move(p.outputs);
  const RequestResult& res = p.totals;
  try {
    const std::vector<std::uint8_t> voted =
        outputs.size() == 1
            ? std::move(outputs.front())
            : reliability::voteImages(
                  outputs,
                  reliability::resolveVote(q.redundancy.vote, q.design));
    q.out.assign(voted);

    std::lock_guard<std::mutex> lock(statsMutex_);
    TenantLedger& ledger = ledgers_[p.tenant];
    ledger.requests += 1;
    ledger.pixels += voted.size();
    ledger.replicasRun += outputs.size();
    ledger.opCount += res.opCount;
    ledger.events += res.events;
    if (res.degraded) ++stats_.degradedRequests;
    ++stats_.requestsServed;
    publishFabricStatsLocked();
  } catch (const std::exception& e) {
    fail(p, e.what());
    return;
  }
  std::lock_guard<std::mutex> lock(ticketMutex_);
  p.result = res;
  p.done = true;
  ticketCv_.notify_all();
}

void AcceleratorService::fail(Pending& p, const std::string& error) {
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    publishFabricStatsLocked();
  }
  std::lock_guard<std::mutex> lock(ticketMutex_);
  p.error = error;
  p.done = true;
  ticketCv_.notify_all();
}

void AcceleratorService::retire() {
  std::lock_guard<std::mutex> lock(dispatchMutex_);
  --inFlight_;
  dispatchCv_.notify_all();
}

void AcceleratorService::publishFabricStatsLocked() {
  if (coordinator_ == nullptr) return;
  const shard::FabricStats& fs = coordinator_->fabric().stats();
  stats_.shardRetries = fs.retries;
  stats_.shardRespawns = fs.respawns;
  stats_.shardTimeouts = fs.timeouts;
  stats_.shardGarbageReplies = fs.garbageReplies;
  stats_.shardFaultsInjected = fs.faultsInjected;
  stats_.deadShards = fs.deadShards;
  stats_.reassignedDispatches = coordinator_->reassignedDispatches();
}

void AcceleratorService::countBatch(std::size_t size) {
  std::lock_guard<std::mutex> lock(statsMutex_);
  stats_.batches += 1;
  if (stats_.batchOccupancy.size() <= size) {
    stats_.batchOccupancy.resize(size + 1, 0);
  }
  stats_.batchOccupancy[size] += 1;
}

}  // namespace aimsc::service
