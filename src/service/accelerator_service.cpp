#include "service/accelerator_service.hpp"

#include <algorithm>
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

/// Everything one queued request carries through the pipeline.  The frame
/// views alias client memory; replica images are service-owned staging
/// that dies with the batch (the voted bytes leave through `request.out`).
struct AcceleratorService::Pending {
  TenantId tenant = 0;
  Request request;
  std::uint64_t seedNamespace = 0;
  std::uint64_t effectiveSeed = 0;
  std::uint64_t id = 0;
  Clock::time_point submitTime;

  // Batch-local execution state (in-process dispatch only), one entry per
  // replica: the lane fleet and the app schedule running on it.
  std::vector<std::unique_ptr<core::TileExecutor>> fleets;
  std::vector<apps::StagedRun> runs;

  // Completion (guarded by the service ticket mutex).
  bool done = false;
  std::string error;
  RequestResult result;
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
  std::lock_guard<std::mutex> lock(pauseMutex_);
  paused_ = true;
}

void AcceleratorService::resume() {
  std::lock_guard<std::mutex> lock(pauseMutex_);
  paused_ = false;
  pauseCv_.notify_all();
}

void AcceleratorService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(pauseMutex_);
    stopping_ = true;
    paused_ = false;  // a paused dispatcher must wake to drain
    pauseCv_.notify_all();
  }
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void AcceleratorService::dispatchLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pauseMutex_);
      pauseCv_.wait(lock, [this] { return !paused_ || stopping_; });
    }
    auto batch = queue_.popBatch(config_.maxBatch, config_.flushDeadline);
    if (batch.empty()) return;  // queue closed and drained
    executeBatch(batch);
  }
}

void AcceleratorService::executeBatch(
    std::vector<std::shared_ptr<Pending>>& batch) {
  const auto batchStart = Clock::now();
  countBatch(batch.size());
  const auto stamp = [&](const Pending& p, RequestResult& res,
                         double execMicros) {
    res.queueMicros = microsSince(p.submitTime, batchStart);
    res.execMicros = execMicros;
    res.batchSize = batch.size();
  };

  if (coordinator_ != nullptr) {
    // Shard back-end: each replica fans out across the shards in turn, and
    // a request resolves as soon as its own replicas return.
    for (auto& p : batch) {
      const Request& q = p->request;
      const std::size_t replicas =
          std::max<std::size_t>(q.redundancy.replicas, 1);
      std::vector<std::vector<std::uint8_t>> outputs;
      RequestResult res;
      try {
        for (std::size_t r = 0; r < replicas; ++r) {
          shard::ShardCoordinator::ReplicaRun run = coordinator_->runReplica(
              q, p->tenant, p->seedNamespace,
              reliability::replicaSeed(p->effectiveSeed, r));
          res.events += run.events;
          res.opCount += run.opCount;
          res.degraded = res.degraded || run.degraded;
          outputs.push_back(std::move(run.pixels));
        }
      } catch (const std::exception& e) {
        fail(*p, e.what());
        continue;
      }
      stamp(*p, res, microsSince(batchStart, Clock::now()));
      join(*p, outputs, res);
    }
    return;
  }

  // In-process back-end.  Every request builds one lane fleet and one app
  // schedule per replica; stage s of every schedule in the batch then runs
  // as ONE merged pool wave.  Lane tasks are self-contained (own backends
  // and arenas, disjoint rows of their own replica's stage image), so wave
  // composition cannot change any bit.
  std::size_t stages = 0;
  for (auto& p : batch) {
    try {
      const Request& q = p->request;
      const std::size_t replicas =
          std::max<std::size_t>(q.redundancy.replicas, 1);
      const ExecShape es{config_.lanes, config_.rowsPerTile};
      p->fleets.reserve(replicas);
      p->runs.reserve(replicas);
      for (std::size_t r = 0; r < replicas; ++r) {
        p->fleets.push_back(makeRequestExecutor(
            es, q, reliability::replicaSeed(p->effectiveSeed, r),
            faultCache_));
        p->runs.emplace_back(framesOf(q));
      }
      stages = std::max(stages, p->runs.front().stages());
    } catch (const std::exception& e) {
      fail(*p, e.what());
    }
  }
  try {
    for (std::size_t s = 0; s < stages; ++s) {
      std::vector<std::function<void()>> wave;
      for (auto& p : batch) {
        if (p->done) continue;  // failed in setup
        for (std::size_t r = 0; r < p->runs.size(); ++r) {
          if (s >= p->runs[r].stages()) continue;
          for (auto& t : p->runs[r].laneTasks(*p->fleets[r], s)) {
            wave.push_back(std::move(t));
          }
        }
      }
      pool_.run(std::move(wave));
    }
  } catch (const std::exception& e) {
    for (auto& p : batch) {
      if (p->done) continue;
      fail(*p, std::string("batch execution failed: ") + e.what());
    }
    return;
  }
  const double execMicros = microsSince(batchStart, Clock::now());

  for (auto& p : batch) {
    if (p->done) continue;
    std::vector<std::vector<std::uint8_t>> outputs;
    RequestResult res;
    for (std::size_t r = 0; r < p->runs.size(); ++r) {
      outputs.push_back(std::move(p->runs[r].output().pixels()));
      res.events += p->fleets[r]->totalEvents();
      res.opCount += p->fleets[r]->totalOpCount();
    }
    // Free the batch-local execution state before handing the result over.
    p->runs.clear();
    p->fleets.clear();
    stamp(*p, res, execMicros);
    join(*p, outputs, res);
  }
}

void AcceleratorService::join(Pending& p,
                              std::vector<std::vector<std::uint8_t>>& outputs,
                              const RequestResult& res) {
  const Request& q = p.request;
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
