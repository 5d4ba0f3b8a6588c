// Chaos suite for the self-healing shard fabric (docs/SHARDING.md
// "Failure semantics & recovery"): every ShardFaultPlan site — drop at
// send, crash-before-reply, hang-before-reply, garbage reply, drop at
// recv — fired against REAL fork()ed subprocess workers, plus kill -9
// storms under concurrent client load.  The invariant everywhere: the
// coordinator's output bytes equal the fault-free one-shot apps::runApp
// run, retries stay within the configured budget, and nothing ever hangs
// (every wait is deadline-bounded).  Runs clean under ASan/UBSan.
#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "img/synth.hpp"
#include "service/accelerator_service.hpp"
#include "shard/coordinator.hpp"
#include "shard/fault_plan.hpp"
#include "shard/supervisor.hpp"
#include "shard/transport.hpp"
#include "shard/worker.hpp"

namespace aimsc {
namespace {

using service::Request;
using shard::FaultSite;
using shard::ShardCoordinator;
using shard::ShardFaultPlan;
using shard::ShardTransportKind;

/// Client-side frame storage for one request (mirrors tests/test_shard).
struct ClientJob {
  Request request;
  img::Image out;
  apps::CompositingScene compositing;
  img::Image src;
};

ClientJob makeJob(apps::AppKind app, core::DesignKind design, std::size_t size,
                  std::uint64_t seed, std::size_t replicas = 1) {
  ClientJob job;
  Request& q = job.request;
  q.app = app;
  q.design = design;
  q.streamLength = 64;
  q.seed = seed;
  q.redundancy.replicas = replicas;
  if (app == apps::AppKind::Compositing) {
    job.compositing = apps::makeCompositingScene(size, size, seed);
    q.src = job.compositing.background;
    q.aux1 = job.compositing.foreground;
    q.aux2 = job.compositing.alpha;
  } else {
    job.src = img::naturalScene(size, size, seed ^ 0xb111);
    q.src = job.src;
  }
  job.out = img::Image(size, size);
  q.out = job.out;
  return job;
}

/// The fault-free oracle on the shard tests' fleet shape (lanes=4, rpt=4).
apps::RunResult oracleRun(const ClientJob& job, std::size_t size) {
  apps::RunConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.streamLength = job.request.streamLength;
  cfg.seed = job.request.seed;
  cfg.faults = job.request.faults;
  cfg.redundancy = job.request.redundancy;
  apps::ParallelConfig par;
  par.lanes = 4;
  par.threads = 1;
  par.rowsPerTile = 4;
  return apps::runAppDetailed(job.request.app, job.request.design, cfg, par);
}

/// One replica through \p coord (tenant 1, no seed namespace), written
/// into the job's output buffer.
ShardCoordinator::ReplicaRun runOn(ShardCoordinator& coord, ClientJob& job) {
  ShardCoordinator::ReplicaRun run =
      coord.runReplica(job.request, 1, 0, job.request.seed);
  job.request.out.assign(run.pixels);
  return run;
}

/// Tight budgets so injected hangs cost ~250ms, not the 5s default.
shard::ChannelDeadlines chaosDeadlines() {
  shard::ChannelDeadlines d;
  d.send = std::chrono::milliseconds(1000);
  d.recv = std::chrono::milliseconds(250);
  return d;
}

shard::RetryPolicy chaosRetry() {
  shard::RetryPolicy rp;
  rp.initialBackoff = std::chrono::milliseconds(1);
  rp.maxBackoff = std::chrono::milliseconds(8);
  // maxRespawns is a lifetime budget and every injected fault burns one
  // respawn on a factory fabric; chaos storms need it out of the way.
  rp.maxRespawns = 1000;
  return rp;
}

ShardFaultPlan singleSitePlan(FaultSite site, double rate,
                              std::uint64_t seed) {
  ShardFaultPlan plan;
  plan.seed = seed;
  switch (site) {
    case FaultSite::DropAtSend: plan.dropAtSend = rate; break;
    case FaultSite::CrashBeforeReply: plan.crashBeforeReply = rate; break;
    case FaultSite::HangBeforeReply: plan.hangBeforeReply = rate; break;
    case FaultSite::GarbageReply: plan.garbageReply = rate; break;
    case FaultSite::DropAtRecv: plan.dropAtRecv = rate; break;
  }
  return plan;
}

TEST(ShardChaosPlan, FaultDrawsAreDeterministicAndRespectRates) {
  const ShardFaultPlan off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.faultFor(0, 0).has_value());

  const ShardFaultPlan all = ShardFaultPlan::uniform(7, 1.0);
  ASSERT_TRUE(all.faultFor(3, 9).has_value());
  // Rate 1.0 everywhere: the first site always wins.
  EXPECT_EQ(*all.faultFor(3, 9), FaultSite::DropAtSend);

  // Pure function of the coordinates: same plan, same draws, every time.
  const ShardFaultPlan p = ShardFaultPlan::uniform(0xc4a05, 0.3);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (std::uint64_t d = 0; d < 64; ++d) {
      EXPECT_EQ(p.faultFor(shard, d), p.faultFor(shard, d));
    }
  }

  // A single-site plan can only ever produce that site.
  const ShardFaultPlan hang = singleSitePlan(FaultSite::HangBeforeReply,
                                             0.5, 11);
  std::size_t fired = 0;
  for (std::uint64_t d = 0; d < 200; ++d) {
    if (const auto site = hang.faultFor(0, d)) {
      EXPECT_EQ(*site, FaultSite::HangBeforeReply);
      ++fired;
    }
  }
  EXPECT_GT(fired, 50u);   // ~100 expected at rate .5
  EXPECT_LT(fired, 150u);
}

/// The tentpole invariant, per site: EVERY dispatch suffers the fault
/// (rate 1.0), and the merged bytes still equal the fault-free oracle —
/// because retries replay the identical frame and injection never fires
/// on a retry.
TEST(ShardChaos, EveryFaultSiteRecoversByteIdentically) {
  const std::size_t size = 12;
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          size, 21);
  const apps::RunResult oracle = oracleRun(job, size);

  for (const FaultSite site :
       {FaultSite::DropAtSend, FaultSite::CrashBeforeReply,
        FaultSite::HangBeforeReply, FaultSite::GarbageReply,
        FaultSite::DropAtRecv}) {
    ShardCoordinator coord(
        shard::makeSupervisedFabric(
            ShardTransportKind::Subprocess, 2, chaosDeadlines(), chaosRetry(),
            singleSitePlan(site, 1.0, 0xfa011 + static_cast<int>(site))),
        4, 4);
    std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
    const ShardCoordinator::ReplicaRun res = runOn(coord, job);

    EXPECT_EQ(job.out.pixels(), oracle.output.pixels())
        << "site " << static_cast<int>(site);
    EXPECT_EQ(res.opCount, oracle.opCount) << "site " << static_cast<int>(site);
    const shard::FabricStats& fs = coord.fabric().stats();
    EXPECT_EQ(fs.faultsInjected, 2u) << "site " << static_cast<int>(site);
    EXPECT_GE(fs.retries, 2u) << "site " << static_cast<int>(site);
    // One recovery per dispatch: retries stay within maxAttempts - 1 each.
    EXPECT_LE(fs.retries,
              static_cast<std::uint64_t>(2 * (chaosRetry().maxAttempts - 1)))
        << "site " << static_cast<int>(site);
    EXPECT_EQ(fs.deadShards, 0u) << "site " << static_cast<int>(site);
    if (site == FaultSite::HangBeforeReply) {
      EXPECT_GE(fs.timeouts, 2u);
    }
    if (site == FaultSite::GarbageReply) {
      EXPECT_GE(fs.garbageReplies, 2u);
    }
  }
}

TEST(ShardChaos, MixedFaultStormUnderReplicationConverges) {
  // All five sites at 30% on every dispatch, TMR replication (6 dispatches
  // per request on 2 shards) through the sharded service: recovery composes
  // across replicas and the voted bytes still match the oracle.
  const std::size_t size = 12;
  ClientJob job = makeJob(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                          size, 33, /*replicas=*/3);
  const apps::RunResult oracle = oracleRun(job, size);

  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.shards = 2;
  sc.shardTransport = ShardTransportKind::Subprocess;
  sc.shardDeadlines = chaosDeadlines();
  sc.shardRetry = chaosRetry();
  sc.shardFaults = ShardFaultPlan::uniform(0x57088, 0.3);
  service::AcceleratorService svc(sc);
  for (int round = 0; round < 3; ++round) {
    std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
    svc.run(1, job.request);
    EXPECT_EQ(job.out.pixels(), oracle.output.pixels()) << "round " << round;
  }
  EXPECT_GE(svc.stats().shardFaultsInjected, 1u);
}

TEST(ShardChaos, TotalDeadlineBoundsAnUnrecoverableShard) {
  // A shard that fails every attempt must be declared dead within the
  // attempt budget and the total deadline — no unbounded retry loops.
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 3);
  const apps::RunResult oracle = oracleRun(job, 8);
  shard::RetryPolicy rp = chaosRetry();
  rp.totalDeadline = std::chrono::milliseconds(3000);
  ShardCoordinator coord(
      shard::makeSupervisedFabric(ShardTransportKind::Subprocess, 2,
                                  chaosDeadlines(), rp),
      4, 4);

  // Kill shard 0's worker repeatedly so every respawned worker dies too.
  std::atomic<bool> stop{false};
  std::thread killer([&] {
    while (!stop.load()) {
      const int pid = coord.fabric().workerPid(0);  // thread-safe snapshot
      if (pid > 0) ::kill(pid, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  runOn(coord, job);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  stop.store(true);
  killer.join();

  // Degraded onto the survivor, byte-identical, within bounded time: the
  // budgets cap recovery at attempts * (recv deadline + backoff) plus the
  // stand-in execution — far under a minute even on a loaded CI box.
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            60);
  const shard::FabricStats& fs = coord.fabric().stats();
  EXPECT_LE(fs.retries, static_cast<std::uint64_t>(rp.maxAttempts));
  EXPECT_LE(fs.respawns, static_cast<std::uint64_t>(rp.maxRespawns));
}

TEST(ShardChaos, KillStormUnderConcurrentClientLoadStaysByteIdentical) {
  // The service-level storm: concurrent client threads submit against a
  // 2-shard subprocess fabric while a killer thread SIGKILLs random
  // workers.  Every ticket must resolve Ok or Degraded with oracle bytes —
  // Failed only if both shards died faster than the respawn budget, which
  // the generous budget here makes effectively impossible.
  const std::size_t size = 12;
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.shards = 2;
  sc.shardTransport = ShardTransportKind::Subprocess;
  sc.shardDeadlines = chaosDeadlines();
  sc.shardRetry = chaosRetry();
  service::AcceleratorService svc(sc);

  ClientJob proto = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                            size, 55);
  const apps::RunResult oracle = oracleRun(proto, size);

  std::atomic<bool> stop{false};
  std::thread killer([&] {
    std::uint64_t n = 0;
    while (!stop.load()) {
      const std::size_t victim = (n++) % 2;
      const int pid = svc.shardCoordinator()->fabric().workerPid(victim);
      if (pid > 0) ::kill(pid, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 4;
  std::atomic<int> okCount{0}, degradedCount{0}, failedCount{0};
  std::atomic<int> byteMismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ClientJob job = makeJob(apps::AppKind::Gamma,
                                core::DesignKind::SwScLfsr, size, 55);
        const service::Ticket t =
            svc.submit(static_cast<service::TenantId>(c), job.request);
        const service::TicketOutcome outcome = svc.waitOutcome(t);
        switch (outcome.status) {
          case service::TicketStatus::Ok: ++okCount; break;
          case service::TicketStatus::Degraded: ++degradedCount; break;
          case service::TicketStatus::Failed: ++failedCount; break;
        }
        if (outcome.ok() && job.out.pixels() != oracle.output.pixels()) {
          ++byteMismatches;
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true);
  killer.join();

  EXPECT_EQ(byteMismatches.load(), 0);
  EXPECT_EQ(failedCount.load(), 0);
  EXPECT_EQ(okCount.load() + degradedCount.load(),
            kClients * kRequestsPerClient);
  svc.shutdown();
}

TEST(ShardChaos, DegradedTicketStatusPropagatesThroughService) {
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.shards = 2;
  sc.shardTransport = ShardTransportKind::Subprocess;
  sc.shardDeadlines = chaosDeadlines();
  sc.shardRetry = chaosRetry();
  sc.shardRetry.maxAttempts = 1;  // first failure -> dead -> degrade
  sc.shardRetry.maxRespawns = 0;
  service::AcceleratorService svc(sc);

  const std::size_t size = 12;
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          size, 77);
  const apps::RunResult oracle = oracleRun(job, size);

  ASSERT_NE(svc.shardCoordinator(), nullptr);
  const int pid = svc.shardCoordinator()->fabric().channel(0).workerPid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  const service::Ticket t = svc.submit(1, job.request);
  const service::TicketOutcome outcome = svc.waitOutcome(t);
  EXPECT_EQ(outcome.status, service::TicketStatus::Degraded);
  EXPECT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.result.degraded);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.degradedRequests, 1u);
  EXPECT_GE(stats.reassignedDispatches, 1u);
  EXPECT_EQ(stats.deadShards, 1u);
  svc.shutdown();
}

TEST(ShardChaos, DeadShardHandsEveryQueuedFrameToTheSurvivor) {
  // No retry budget: shard 0's worker is killed while four requests wait
  // in a paused service.  On resume their frames queue on both shards; the
  // first failure on shard 0 marks it dead, and its in-flight frame and
  // every frame queued behind it move verbatim to shard 1.  Each ticket
  // reads Degraded with oracle bytes, and each frame shard 0 owned is
  // served exactly once by the stand-in.
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.shards = 2;
  sc.shardTransport = ShardTransportKind::Subprocess;
  sc.shardDeadlines = chaosDeadlines();
  sc.shardRetry = chaosRetry();
  sc.shardRetry.maxAttempts = 1;
  sc.shardRetry.maxRespawns = 0;
  sc.startPaused = true;
  service::AcceleratorService svc(sc);

  const std::size_t size = 12;
  const std::size_t replicas[] = {1, 3, 1, 3};
  std::vector<ClientJob> jobs;
  std::vector<apps::RunResult> oracles;
  std::vector<service::Ticket> tickets;
  for (const std::size_t r : replicas) {
    jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                           size, 91, r));
    oracles.push_back(oracleRun(jobs.back(), size));
  }
  for (ClientJob& job : jobs) tickets.push_back(svc.submit(1, job.request));

  const int pid = svc.shardCoordinator()->fabric().workerPid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  svc.resume();

  std::uint64_t framesShard0Owned = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const service::TicketOutcome outcome = svc.waitOutcome(tickets[i]);
    EXPECT_EQ(outcome.status, service::TicketStatus::Degraded)
        << "request " << i << ": " << outcome.error;
    EXPECT_EQ(jobs[i].out.pixels(), oracles[i].output.pixels())
        << "request " << i;
    framesShard0Owned += replicas[i];  // one frame per replica (lanes 0, 2)
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.deadShards, 1u);
  EXPECT_EQ(stats.degradedRequests, jobs.size());
  EXPECT_EQ(stats.reassignedDispatches, framesShard0Owned);
  svc.shutdown();
}

TEST(ShardChaos, HungWorkersUnderPipelinedLoadCostOneDeadlineEach) {
  // Every original dispatch wedges its worker after executing.  With three
  // requests admitted together, frames queue behind each other on both
  // shards; each hang must cost exactly one recv deadline, counted from its
  // own dispatch, and the respawned worker's replay the oracle bytes.
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.shards = 2;
  sc.shardTransport = ShardTransportKind::Subprocess;
  sc.shardDeadlines = chaosDeadlines();
  sc.shardRetry = chaosRetry();
  sc.shardFaults = singleSitePlan(FaultSite::HangBeforeReply, 1.0, 0x4a96);
  sc.startPaused = true;
  service::AcceleratorService svc(sc);

  const std::size_t size = 12;
  std::vector<ClientJob> jobs;
  std::vector<apps::RunResult> oracles;
  jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                         size, 101));
  jobs.push_back(makeJob(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                         size, 102));
  jobs.push_back(makeJob(apps::AppKind::Filters, core::DesignKind::SwScSimd,
                         size, 103));
  std::vector<service::Ticket> tickets;
  for (ClientJob& job : jobs) {
    oracles.push_back(oracleRun(job, size));
    tickets.push_back(svc.submit(1, job.request));
  }
  svc.resume();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const service::TicketOutcome outcome = svc.waitOutcome(tickets[i]);
    EXPECT_EQ(outcome.status, service::TicketStatus::Ok)
        << "request " << i << ": " << outcome.error;
    EXPECT_EQ(jobs[i].out.pixels(), oracles[i].output.pixels())
        << "request " << i;
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.shardFaultsInjected, 2 * jobs.size());  // 2 frames each
  EXPECT_EQ(stats.shardTimeouts, stats.shardFaultsInjected);
  EXPECT_EQ(stats.shardRespawns, stats.shardFaultsInjected);
  EXPECT_EQ(stats.deadShards, 0u);
  svc.shutdown();
}

TEST(ShardChaos, FailedTicketStatusCarriesTheError) {
  // Both shards dead with no budgets left: the ticket reads Failed with a
  // reason — data, not an exception — while run() throws for clients that
  // want the bare result.
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.shards = 2;
  sc.shardTransport = ShardTransportKind::Subprocess;
  sc.shardDeadlines = chaosDeadlines();
  sc.shardRetry = chaosRetry();
  sc.shardRetry.maxAttempts = 1;
  sc.shardRetry.maxRespawns = 0;
  service::AcceleratorService svc(sc);

  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 5);
  for (std::size_t s = 0; s < 2; ++s) {
    const int pid = svc.shardCoordinator()->fabric().channel(s).workerPid();
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
  }

  const service::Ticket t = svc.submit(1, job.request);
  const service::TicketOutcome outcome = svc.waitOutcome(t);
  EXPECT_EQ(outcome.status, service::TicketStatus::Failed);
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.error.empty());

  // The legacy throwing path agrees on a second doomed request.
  EXPECT_THROW(svc.run(1, job.request), std::runtime_error);

  // waitOutcomeFor: unresolved -> nullopt; unknown ticket -> throws.
  EXPECT_THROW(svc.waitOutcome(t), std::invalid_argument);
  svc.shutdown();
}

TEST(ShardChaos, LoopbackFabricRecoversGarbageByRetryInPlace) {
  // Loopback channels have no process to kill; a garbage-reply fault is
  // recovered by replaying on a respawned in-process worker.  Bits are
  // preserved because warm state is bit-preserving by construction.
  const std::size_t size = 12;
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          size, 17);
  const apps::RunResult oracle = oracleRun(job, size);
  ShardCoordinator coord(
      shard::makeSupervisedFabric(
          ShardTransportKind::Loopback, 2, chaosDeadlines(), chaosRetry(),
          singleSitePlan(FaultSite::GarbageReply, 1.0, 0x9a9b)),
      4, 4);
  runOn(coord, job);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
  EXPECT_GE(coord.fabric().stats().garbageReplies, 2u);
}

}  // namespace
}  // namespace aimsc
