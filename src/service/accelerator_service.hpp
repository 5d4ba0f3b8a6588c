/// \file accelerator_service.hpp
/// \brief The always-on accelerator daemon: a persistent in-process service
///        that owns the worker pool and serves concurrent tenants through a
///        bounded queue with continuous admission.
///
/// Serving model (docs/SERVICE.md):
///
///   clients --submit/trySubmit--> [BoundedQueue] --popBatch--> dispatcher
///        <--poll/waitOutcome-- tickets <--join/vote/bill-- [lane tasks]
///
/// * **Queue**: bounded MPMC; `submit` blocks while full (backpressure),
///   `trySubmit` refuses.  Whenever fewer than `maxBatch` requests are in
///   flight, the dispatcher admits what is queued, up to the free room,
///   without waiting for stragglers.
/// * **Continuous dispatch**: each admitted request builds its own
///   independently-seeded lane fleet (a `TileExecutor` per replica) and runs
///   the app schedule on it (apps/schedule.hpp).  The dispatcher submits
///   every replica's stage-0 lane tasks to the shared pool and moves on; the
///   pool thread that finishes a replica's last stage-s lane task submits
///   its stage s + 1, and the one that finishes the request's last replica
///   joins it on the spot.  Requests in flight share the pool with no wave
///   barrier, so each resolves when its own lanes finish, not when the
///   slowest request admitted with it does.  With `shards > 0` the
///   dispatcher thread runs the shard coordinator's event loop instead: it
///   queues every replica of each admitted request on the shards at once,
///   keeps each worker fed from its FIFO, and joins a request when its last
///   replica merges.
/// * **Determinism**: a lane task is self-contained (own backends, own
///   arenas, disjoint output rows in its own request's buffer), so which
///   pool thread runs it — and which strangers run beside it — cannot
///   change any bit.  Output bytes are a pure function of (request fields,
///   tenant seed namespace).  `tests/test_service.cpp` hammers this.
/// * **Accounting**: both back-ends feed one join: the request's replica
///   outputs are voted (reliability::voteImages), written into the client's
///   `ImageSpan`, the replica-summed event/op ledgers are billed to the
///   tenant, and the ticket resolves.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "core/thread_pool.hpp"
#include "service/accounting.hpp"
#include "service/fault_model_cache.hpp"
#include "service/request.hpp"
#include "service/request_queue.hpp"
#include "service/ticket.hpp"
#include "shard/fault_plan.hpp"
#include "shard/supervisor.hpp"
#include "shard/transport.hpp"

namespace aimsc::shard {
class ShardCoordinator;
}

namespace aimsc::service {

struct ServiceConfig {
  /// Admission-queue capacity; submit() blocks when this many requests are
  /// already queued (backpressure).
  std::size_t queueCapacity = 64;

  /// Worker threads running the lane tasks of every request in flight;
  /// 0 = the dispatcher thread runs each admitted request to completion
  /// inline (still fully asynchronous to clients).
  std::size_t workerThreads = 0;

  /// Lane fleet size per request replica, and the tile height.  These are
  /// part of each request's bit contract (same role as ParallelConfig in
  /// apps::runApp), so they are service-wide, not per request.
  std::size_t lanes = 4;
  std::size_t rowsPerTile = 4;

  /// Admission window: the most requests executing at once, in-process or
  /// on the shards.  The dispatcher admits queued requests while fewer than
  /// this many are in flight, so the queue's backpressure also bounds the
  /// lane fleets (or queued shard frames) alive at once.  1 runs requests
  /// strictly one after another.
  std::size_t maxBatch = 8;

  /// Start with the dispatcher paused (tests: fill the queue, observe
  /// backpressure/occupancy deterministically, then resume()).
  bool startPaused = false;

  /// Shard fan-out: 0 = in-process execution (the PR-7 daemon path);
  /// N > 0 builds N shard workers at construction and executes every
  /// request through the shard coordinator (wire codec + transport;
  /// docs/SHARDING.md).  Output bytes are identical either way — sharding
  /// is a deployment knob, not part of the bit contract.  Subprocess
  /// workers are fork()ed in the constructor BEFORE any service thread
  /// starts (fork-safety).
  std::size_t shards = 0;
  shard::ShardTransportKind shardTransport =
      shard::ShardTransportKind::Subprocess;

  /// Fabric resilience knobs (shards > 0 only): per-operation channel
  /// deadlines, the retry/backoff/respawn budgets, and the chaos-injection
  /// plan (all-zero rates = injection off; chaos tests and bench only).
  shard::ChannelDeadlines shardDeadlines{};
  shard::RetryPolicy shardRetry{};
  shard::ShardFaultPlan shardFaults{};
};

class AcceleratorService {
 public:
  explicit AcceleratorService(const ServiceConfig& config = ServiceConfig{});
  ~AcceleratorService();

  AcceleratorService(const AcceleratorService&) = delete;
  AcceleratorService& operator=(const AcceleratorService&) = delete;

  /// Validates and enqueues; blocks while the queue is full.  The frame
  /// views and the output span must stay valid until the ticket resolves.
  /// Throws std::invalid_argument on a malformed request,
  /// std::runtime_error after shutdown().
  Ticket submit(TenantId tenant, const Request& request);

  /// Non-blocking admission: nullopt when the queue is full (or stopped).
  std::optional<Ticket> trySubmit(TenantId tenant, const Request& request);

  /// True once the ticket's request has resolved (result ready or failed).
  bool poll(const Ticket& ticket) const;

  /// Blocks until resolved, then redeems the ticket (single use).  NEVER
  /// throws on execution failure — a Failed outcome carries the error
  /// string instead, and Degraded marks a request that recovered onto
  /// stand-in shards (bytes identical either way).  Throws
  /// std::invalid_argument for an unknown or already-redeemed ticket.
  TicketOutcome waitOutcome(const Ticket& ticket);

  /// waitOutcome() with a deadline: nullopt while unresolved (the ticket
  /// stays live and redeemable later).
  std::optional<TicketOutcome> waitOutcomeFor(
      const Ticket& ticket, std::chrono::microseconds timeout);

  /// Blocking convenience wrapper: submit + waitOutcome.  Throws
  /// std::runtime_error if the request failed in execution.
  RequestResult run(TenantId tenant, const Request& request);

  /// Gives \p tenant its own seed universe (see TenantLedger::seedNamespace;
  /// affects only requests submitted afterwards).
  void setTenantSeedNamespace(TenantId tenant, std::uint64_t ns);

  /// Snapshot of the tenant's bill (default ledger for unknown tenants).
  TenantLedger tenantLedger(TenantId tenant) const;

  /// Snapshot of service-wide batching statistics.
  ServiceStats stats() const;

  /// Pause/resume the dispatcher (admission stays open — the queue fills
  /// and backpressure becomes observable).
  void pause();
  void resume();

  /// Stops admission, drains every queued and in-flight request, joins the
  /// dispatcher and waits for the pool to go idle.  Idempotent; the
  /// destructor calls it.
  void shutdown();

  std::size_t queueDepth() const { return queue_.size(); }
  const ServiceConfig& config() const { return config_; }

  /// The shard fan-out, nullptr when `config.shards == 0`.  Exposed for
  /// tests and ops tooling (fault injection, shard introspection).
  shard::ShardCoordinator* shardCoordinator() { return coordinator_.get(); }

 private:
  struct Pending;
  struct Replica;

  /// The one redemption path: blocks for at most \p timeout (forever when
  /// empty); nullopt while the ticket is still unresolved.
  std::optional<TicketOutcome> redeem(
      const Ticket& ticket, std::optional<std::chrono::microseconds> timeout);
  void dispatchLoop();
  /// The dispatcher with `shards > 0`: admits queued requests into the
  /// window and pumps the shard coordinator's event loop, which `submit`,
  /// `trySubmit`, `resume` and `shutdown` wake.
  void shardLoop();
  /// Admits \p batch: stamps and counts it, then queues each request on
  /// the shard coordinator (`shards > 0`) or starts it in-process.
  void admit(std::vector<std::shared_ptr<Pending>>& batch);
  /// Queues every replica of \p p on the shard coordinator; the last one
  /// to merge completes \p p.
  void runOnShards(const std::shared_ptr<Pending>& p);
  /// Builds \p p's lane fleets and submits every replica's stage-0 lane
  /// tasks without waiting for them.
  void start(const std::shared_ptr<Pending>& p);
  /// Submits the lane tasks of \p rep's stage \p s; each one, when done,
  /// counts itself off the stage.  A stage whose tasks cannot be built
  /// fails the request.
  void submitStage(const std::shared_ptr<Pending>& p, Replica& rep,
                   std::size_t s);
  /// Called by the last lane task of \p rep's stage \p s: submits stage
  /// s + 1, or (after the last stage or a lane error) retires the replica
  /// and completes \p p after its last one.
  void stageDone(const std::shared_ptr<Pending>& p, Replica& rep,
                 std::size_t s);
  /// Collects the outputs of an in-process request whose replicas all
  /// finished and resolves it.
  void complete(Pending& p);
  /// Joins (or fails) \p p once every replica output is in, then frees its
  /// slot in the admission window.
  void resolve(Pending& p);
  /// The join both back-ends feed: votes \p p's replica outputs, writes
  /// the voted bytes through the client span, bills the tenant and
  /// resolves the ticket.
  void join(Pending& p);
  /// Resolves \p p's ticket as failed.
  void fail(Pending& p, const std::string& error);
  /// Frees one slot of the admission window and wakes the dispatcher.
  void retire();
  /// Copies the shard fabric's cumulative counters into the stats (caller
  /// holds statsMutex_; no-op in-process).  The supervisor is
  /// dispatcher-thread-only, so this copy is the one place they become
  /// visible to stats() readers; it runs before each ticket resolves, so a
  /// client that redeems its ticket sees the recovery work its own request
  /// caused.
  void publishFabricStatsLocked();
  /// Counts a batch of \p size in the stats before any of its tickets
  /// resolves (as each served request is), so a client that redeems its
  /// ticket and then reads stats() sees the batch it rode.
  void countBatch(std::size_t size);
  std::shared_ptr<Pending> makePending(TenantId tenant, const Request& request);
  Ticket registerTicket(const std::shared_ptr<Pending>& pending);

  ServiceConfig config_;
  BoundedQueue<std::shared_ptr<Pending>> queue_;

  /// Shard fan-out (config.shards > 0).  Declared BEFORE pool_ so
  /// subprocess workers fork while the service is still single-threaded.
  std::unique_ptr<shard::ShardCoordinator> coordinator_;

  core::ThreadPool pool_;

  /// Warm misdecision tables shared across requests (bit-preserving memo;
  /// outlives every per-request executor — each dies with its request).
  FaultModelCache faultCache_;

  mutable std::mutex ticketMutex_;
  std::condition_variable ticketCv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> tickets_;
  std::uint64_t nextTicket_ = 1;

  mutable std::mutex statsMutex_;
  std::unordered_map<TenantId, TenantLedger> ledgers_;
  ServiceStats stats_;

  /// Dispatcher gate: the pause flag, shutdown, and the admission window
  /// (requests admitted but not yet resolved).
  std::mutex dispatchMutex_;
  std::condition_variable dispatchCv_;
  bool paused_ = false;
  bool stopping_ = false;
  std::size_t inFlight_ = 0;

  std::thread dispatcher_;
};

}  // namespace aimsc::service
