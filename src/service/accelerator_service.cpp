#include "service/accelerator_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

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

}  // namespace

/// Everything one queued request carries through the pipeline.  The frame
/// views alias client memory; replica outputs are service-owned staging
/// that dies with the batch (the voted bytes leave through `request.out`).
struct AcceleratorService::Pending {
  TenantId tenant = 0;
  Request request;
  std::uint64_t effectiveSeed = 0;
  std::uint64_t id = 0;
  Clock::time_point submitTime;

  // Batch-local execution state (dispatcher only).
  std::vector<std::unique_ptr<core::TileExecutor>> execs;  // one per replica
  std::vector<img::Image> replicaOut;                      // one per replica
  std::vector<img::Image> morphTmp;  // morphology stage-0 intermediates

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

std::uint64_t AcceleratorService::namespacedSeed(TenantId tenant,
                                                 std::uint64_t seed) const {
  std::uint64_t ns = 0;
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    const auto it = ledgers_.find(tenant);
    if (it != ledgers_.end()) ns = it->second.seedNamespace;
  }
  if (ns == 0) return seed;
  // Re-key through the mixer so tenant universes never collide with each
  // other or with the lane/replica seed strides.
  return reliability::mix64(ns ^ (seed + 0x9e3779b97f4a7c15ull));
}

std::shared_ptr<AcceleratorService::Pending> AcceleratorService::makePending(
    TenantId tenant, const Request& request) {
  auto p = std::make_shared<Pending>();
  p->tenant = tenant;
  p->request = request;
  p->effectiveSeed = namespacedSeed(tenant, request.seed);
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

std::optional<RequestResult> AcceleratorService::waitFor(
    const Ticket& ticket, std::chrono::microseconds timeout) {
  std::shared_ptr<Pending> pending;
  {
    std::unique_lock<std::mutex> lock(ticketMutex_);
    const auto it = tickets_.find(ticket.id);
    if (it == tickets_.end()) {
      throw std::invalid_argument(
          "AcceleratorService: unknown or already-redeemed ticket");
    }
    pending = it->second;
    if (!ticketCv_.wait_for(lock, timeout, [&] { return pending->done; })) {
      return std::nullopt;  // still pending; ticket stays redeemable
    }
    tickets_.erase(ticket.id);
  }
  if (!pending->error.empty()) throw std::runtime_error(pending->error);
  return pending->result;
}

RequestResult AcceleratorService::wait(const Ticket& ticket) {
  std::shared_ptr<Pending> pending;
  {
    std::unique_lock<std::mutex> lock(ticketMutex_);
    const auto it = tickets_.find(ticket.id);
    if (it == tickets_.end()) {
      throw std::invalid_argument(
          "AcceleratorService: unknown or already-redeemed ticket");
    }
    pending = it->second;
    ticketCv_.wait(lock, [&] { return pending->done; });
    tickets_.erase(ticket.id);
  }
  if (!pending->error.empty()) throw std::runtime_error(pending->error);
  return pending->result;
}

TicketOutcome AcceleratorService::waitOutcome(const Ticket& ticket) {
  std::shared_ptr<Pending> pending;
  {
    std::unique_lock<std::mutex> lock(ticketMutex_);
    const auto it = tickets_.find(ticket.id);
    if (it == tickets_.end()) {
      throw std::invalid_argument(
          "AcceleratorService: unknown or already-redeemed ticket");
    }
    pending = it->second;
    ticketCv_.wait(lock, [&] { return pending->done; });
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

std::optional<TicketOutcome> AcceleratorService::waitOutcomeFor(
    const Ticket& ticket, std::chrono::microseconds timeout) {
  std::shared_ptr<Pending> pending;
  {
    std::unique_lock<std::mutex> lock(ticketMutex_);
    const auto it = tickets_.find(ticket.id);
    if (it == tickets_.end()) {
      throw std::invalid_argument(
          "AcceleratorService: unknown or already-redeemed ticket");
    }
    pending = it->second;
    if (!ticketCv_.wait_for(lock, timeout, [&] { return pending->done; })) {
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

RequestResult AcceleratorService::run(TenantId tenant, const Request& request) {
  return wait(submit(tenant, request));
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

void AcceleratorService::executeBatchSharded(
    std::vector<std::shared_ptr<Pending>>& batch) {
  const auto batchStart = Clock::now();
  countBatch(batch.size());
  // Publish the fabric's cumulative counters.  The supervisor is
  // dispatcher-thread-only, so copying under statsMutex_ is the one place
  // they become visible to concurrent stats() readers; it runs BEFORE each
  // ticket resolves so a client that waits on a ticket and then reads
  // stats() sees the recovery work its own request caused.
  const auto snapshotFabricLocked = [this]() {
    const shard::FabricStats& fs = coordinator_->fabric().stats();
    stats_.shardRetries = fs.retries;
    stats_.shardRespawns = fs.respawns;
    stats_.shardTimeouts = fs.timeouts;
    stats_.shardGarbageReplies = fs.garbageReplies;
    stats_.shardFaultsInjected = fs.faultsInjected;
    stats_.deadShards = fs.deadShards;
    stats_.reassignedDispatches = coordinator_->reassignedDispatches();
  };
  for (auto& p : batch) {
    const Request& q = p->request;
    RequestResult res;
    try {
      std::uint64_t ns = 0;
      {
        std::lock_guard<std::mutex> lock(statsMutex_);
        const auto it = ledgers_.find(p->tenant);
        if (it != ledgers_.end()) ns = it->second.seedNamespace;
      }
      res = coordinator_->runReplicated(p->tenant, q, ns, p->effectiveSeed);
      res.queueMicros = microsSince(p->submitTime, batchStart);
      res.execMicros = microsSince(batchStart, Clock::now());
      res.batchSize = batch.size();

      const OutputShape shape = outputShapeFor(q);
      std::lock_guard<std::mutex> lock(statsMutex_);
      TenantLedger& ledger = ledgers_[p->tenant];
      ledger.requests += 1;
      ledger.pixels += shape.width * shape.height;
      ledger.replicasRun += std::max<std::size_t>(q.redundancy.replicas, 1);
      ledger.opCount += res.opCount;
      ledger.events += res.events;
      if (res.degraded) ++stats_.degradedRequests;
      ++stats_.requestsServed;
      snapshotFabricLocked();
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> slock(statsMutex_);
        snapshotFabricLocked();
      }
      std::lock_guard<std::mutex> lock(ticketMutex_);
      p->error = e.what();
      p->done = true;
      ticketCv_.notify_all();
      continue;
    }
    std::lock_guard<std::mutex> lock(ticketMutex_);
    p->result = res;
    p->done = true;
    ticketCv_.notify_all();
  }
}

void AcceleratorService::executeBatch(
    std::vector<std::shared_ptr<Pending>>& batch) {
  if (coordinator_ != nullptr) {
    executeBatchSharded(batch);
    return;
  }
  const auto batchStart = Clock::now();

  // Stage 0: every request builds its per-replica lane fleets and
  // contributes its lane tasks to ONE merged wave.  Tasks are
  // self-contained (own backends/arenas, disjoint rows of the request's
  // own staging image), so wave composition cannot change any bit.
  std::vector<std::function<void()>> wave;
  for (auto& p : batch) {
    try {
      const Request& q = p->request;
      const OutputShape shape = outputShapeFor(q);
      const std::size_t replicas = std::max<std::size_t>(
          q.redundancy.replicas, 1);
      p->execs.reserve(replicas);
      p->replicaOut.reserve(replicas);
      if (q.app == apps::AppKind::Morphology) p->morphTmp.reserve(replicas);
      const ExecShape es{config_.lanes, config_.rowsPerTile};
      for (std::size_t r = 0; r < replicas; ++r) {
        p->execs.push_back(makeRequestExecutor(
            es, q, reliability::replicaSeed(p->effectiveSeed, r),
            faultCache_));
        // Staging init mirrors each app's whole-image form (shared with the
        // shard worker — see request_kernels.hpp): morphology's source copy
        // is the erode intermediate, its output starts blank.
        if (q.app == apps::AppKind::Morphology) {
          p->morphTmp.push_back(makeStage0Staging(q, shape));
          p->replicaOut.push_back(img::Image(shape.width, shape.height));
        } else {
          p->replicaOut.push_back(makeStage0Staging(q, shape));
        }
        img::Image& stage0Out = q.app == apps::AppKind::Morphology
                                    ? p->morphTmp[r]
                                    : p->replicaOut[r];
        auto tasks = p->execs[r]->laneTasks(stage0Out.height(),
                                            stage0Kernel(q, stage0Out));
        for (auto& t : tasks) wave.push_back(std::move(t));
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(ticketMutex_);
      p->error = e.what();
      p->done = true;
      ticketCv_.notify_all();
    }
  }

  try {
    pool_.run(std::move(wave));

    // Stage 1 (morphology riders only): seed the dilate staging from the
    // eroded intermediate, then run the second merged wave on the SAME
    // lane fleets — exactly openKernelTiled's two-pass schedule.
    std::vector<std::function<void()>> wave1;
    for (auto& p : batch) {
      if (p->done || p->request.app != apps::AppKind::Morphology) continue;
      for (std::size_t r = 0; r < p->execs.size(); ++r) {
        p->replicaOut[r].pixels() = p->morphTmp[r].pixels();
        auto tasks = p->execs[r]->laneTasks(
            p->replicaOut[r].height(),
            stage1Kernel(p->morphTmp[r], p->replicaOut[r]));
        for (auto& t : tasks) wave1.push_back(std::move(t));
      }
    }
    if (!wave1.empty()) pool_.run(std::move(wave1));
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(ticketMutex_);
    for (auto& p : batch) {
      if (p->done) continue;
      p->error = std::string("batch execution failed: ") + e.what();
      p->done = true;
    }
    ticketCv_.notify_all();
    return;
  }

  const auto batchEnd = Clock::now();
  const double execMicros = microsSince(batchStart, batchEnd);
  countBatch(batch.size());

  // Join: vote, write through the client span, bill the tenant.
  for (auto& p : batch) {
    if (p->done) continue;  // failed in setup
    const Request& q = p->request;
    RequestResult res;
    try {
      std::vector<std::vector<std::uint8_t>> outputs;
      outputs.reserve(p->replicaOut.size());
      for (auto& image : p->replicaOut) {
        outputs.push_back(std::move(image.pixels()));
      }
      const reliability::Vote vote =
          reliability::resolveVote(q.redundancy.vote, q.design);
      const std::vector<std::uint8_t> voted =
          outputs.size() == 1 ? std::move(outputs.front())
                              : reliability::voteImages(outputs, vote);
      q.out.assign(voted);

      for (auto& exec : p->execs) {
        res.events += exec->totalEvents();
        for (std::size_t i = 0; i < exec->lanes(); ++i) {
          res.opCount += exec->backend(i).opCount();
        }
      }
      res.queueMicros = microsSince(p->submitTime, batchStart);
      res.execMicros = execMicros;
      res.batchSize = batch.size();

      {
        std::lock_guard<std::mutex> lock(statsMutex_);
        TenantLedger& ledger = ledgers_[p->tenant];
        ledger.requests += 1;
        ledger.pixels += voted.size();
        ledger.replicasRun += p->execs.size();
        ledger.opCount += res.opCount;
        ledger.events += res.events;
        ++stats_.requestsServed;
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(ticketMutex_);
      p->error = e.what();
      p->done = true;
      ticketCv_.notify_all();
      continue;
    }

    // Free the batch-local execution state before handing the result over.
    p->execs.clear();
    p->replicaOut.clear();
    p->morphTmp.clear();

    std::lock_guard<std::mutex> lock(ticketMutex_);
    p->result = res;
    p->done = true;
    ticketCv_.notify_all();
  }
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
