// Always-on accelerator service: the determinism-under-batching contract
// (a request's output bytes are a pure function of the request + tenant
// namespace — solo vs batched, any worker-thread count, any tenant
// interleaving), queue backpressure, continuous admission (each request
// resolves on its own lanes; shutdown drains requests in flight), per-tenant
// accounting, and bit-equality with the one-shot apps::runApp path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "img/synth.hpp"
#include "service/accelerator_service.hpp"

namespace aimsc {
namespace {

using service::AcceleratorService;
using service::Request;
using service::ServiceConfig;
using service::TenantId;
using service::Ticket;

/// Client-side frame storage for one request (what a real caller owns).
struct ClientJob {
  Request request;
  img::Image out;

  // Owned frames (the request's views alias these).
  apps::CompositingScene compositing;
  apps::MattingScene matting;
  img::Image src;
};

/// Builds a job whose frames reproduce exactly what apps::runApp
/// synthesizes for (app, cfg) — the cross-check oracle.
ClientJob makeJob(apps::AppKind app, core::DesignKind design,
                  std::size_t size, std::uint64_t seed,
                  std::size_t replicas = 1) {
  ClientJob job;
  Request& q = job.request;
  q.app = app;
  q.design = design;
  q.streamLength = 64;
  q.seed = seed;
  q.redundancy.replicas = replicas;
  switch (app) {
    case apps::AppKind::Compositing:
      job.compositing = apps::makeCompositingScene(size, size, seed);
      q.src = job.compositing.background;
      q.aux1 = job.compositing.foreground;
      q.aux2 = job.compositing.alpha;
      job.out = img::Image(size, size);
      break;
    case apps::AppKind::Matting:
      job.matting = apps::makeMattingScene(size, size, seed);
      q.src = job.matting.composite;
      q.aux1 = job.matting.background;
      q.aux2 = job.matting.foreground;
      job.out = img::Image(size, size);
      break;
    case apps::AppKind::Bilinear:
      job.src = img::naturalScene(size, size, seed ^ 0xb111);
      q.src = job.src;
      q.upscaleFactor = 2;
      job.out = img::Image(size * 2, size * 2);
      break;
    default:  // Filters / Gamma / Morphology
      job.src = img::naturalScene(size, size, seed ^ 0xb111);
      q.src = job.src;
      job.out = img::Image(size, size);
      break;
  }
  q.out = job.out;
  return job;
}

ServiceConfig smallServiceConfig() {
  ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.maxBatch = 8;
  return sc;
}

TEST(Service, MatchesOneShotRunnerBitExactly) {
  // A service request must produce the SAME bytes as the equivalent
  // one-shot runApp call on a matching lane fleet — the serving layer adds
  // queueing and batching, never a different answer.
  const struct {
    apps::AppKind app;
    core::DesignKind design;
    std::size_t replicas;
  } cases[] = {
      {apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 1},
      {apps::AppKind::Compositing, core::DesignKind::ReramSc, 1},
      {apps::AppKind::Matting, core::DesignKind::SwScSobol, 1},
      {apps::AppKind::Matting, core::DesignKind::SwScSfmt, 1},
      {apps::AppKind::Morphology, core::DesignKind::SwScSimd, 1},
      {apps::AppKind::Bilinear, core::DesignKind::BinaryCim, 1},
      {apps::AppKind::Filters, core::DesignKind::SwScLfsr, 3},
  };
  AcceleratorService svc(smallServiceConfig());
  for (const auto& c : cases) {
    apps::RunConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    cfg.streamLength = 64;
    cfg.seed = 99;
    cfg.redundancy.replicas = c.replicas;
    apps::ParallelConfig par;
    par.lanes = 4;
    par.threads = 1;  // forces the lane-fleet path on every design
    par.rowsPerTile = 4;
    const apps::RunResult oracle =
        apps::runAppDetailed(c.app, c.design, cfg, par);

    ClientJob job = makeJob(c.app, c.design, 16, 99, c.replicas);
    const service::RequestResult res = svc.run(7, job.request);

    EXPECT_EQ(job.out.pixels(), oracle.output.pixels())
        << apps::appName(c.app) << " on " << core::designKindName(c.design);
    EXPECT_EQ(res.opCount, oracle.opCount) << apps::appName(c.app);
    EXPECT_EQ(res.events.slReads, oracle.events.slReads);
    EXPECT_EQ(res.events.rowWrites, oracle.events.rowWrites)
        << apps::appName(c.app);
  }
}

TEST(Service, FaultModelCacheIsBitPreservingAndWarm) {
  // Device-variability requests draw their misdecision tables from the
  // service's FaultModelCache.  A cold request (cache miss) must still be
  // bit-identical to the one-shot runner, and an identical follow-up must
  // hit the cache (skipping the Monte-Carlo) without changing a byte.
  const reliability::FaultPlan plan =
      reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice(), 2000);

  apps::RunConfig cfg;
  cfg.width = 12;
  cfg.height = 12;
  cfg.streamLength = 64;
  cfg.seed = 5;
  cfg.faults = plan;
  apps::ParallelConfig par;
  par.lanes = 4;
  par.threads = 1;
  par.rowsPerTile = 4;
  const apps::RunResult oracle = apps::runAppDetailed(
      apps::AppKind::Compositing, core::DesignKind::ReramSc, cfg, par);

  AcceleratorService svc(smallServiceConfig());
  ClientJob job = makeJob(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                          12, 5);
  job.request.faults = plan;

  svc.run(1, job.request);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels()) << "cold (cache miss)";
  const service::ServiceStats cold = svc.stats();
  EXPECT_EQ(cold.faultModelCacheMisses, 4u);  // one table per mat seed
  EXPECT_EQ(cold.faultModelCacheHits, 0u);
  EXPECT_EQ(cold.faultModelCacheSize, 4u);

  std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
  svc.run(1, job.request);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels()) << "warm (cache hit)";
  const service::ServiceStats warm = svc.stats();
  EXPECT_EQ(warm.faultModelCacheMisses, 4u);
  EXPECT_EQ(warm.faultModelCacheHits, 4u);

  // A different device corner is a different key, never a stale hit.
  ClientJob other = makeJob(apps::AppKind::Compositing,
                            core::DesignKind::ReramSc, 12, 5);
  reram::DeviceParams corner = apps::defaultFaultyDevice();
  corner.sigmaHrs *= 1.5;
  other.request.faults = reliability::FaultPlan::deviceOnly(corner, 2000);
  svc.run(2, other.request);
  EXPECT_NE(other.out.pixels(), oracle.output.pixels());
  EXPECT_EQ(svc.stats().faultModelCacheSize, 8u);
}

TEST(Service, BinaryCimFaultTablesComeFromTheCache) {
  // Binary-CIM lanes take their MAGIC misdecision tables from the same
  // cache, one per lane engine seed.  Cold and warm requests must both
  // match the one-shot runner, whose engines build their own tables.
  const reliability::FaultPlan plan =
      reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice(), 2000);

  apps::RunConfig cfg;
  cfg.width = 12;
  cfg.height = 12;
  cfg.streamLength = 64;
  cfg.seed = 5;
  cfg.faults = plan;
  apps::ParallelConfig par;
  par.lanes = 4;
  par.threads = 1;
  par.rowsPerTile = 4;
  const apps::RunResult oracle = apps::runAppDetailed(
      apps::AppKind::Compositing, core::DesignKind::BinaryCim, cfg, par);

  AcceleratorService svc(smallServiceConfig());
  ClientJob job = makeJob(apps::AppKind::Compositing,
                          core::DesignKind::BinaryCim, 12, 5);
  job.request.faults = plan;

  const service::RequestResult cold = svc.run(1, job.request);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels()) << "cold (cache miss)";
  EXPECT_EQ(cold.opCount, oracle.opCount);
  EXPECT_EQ(svc.stats().faultModelCacheMisses, 4u);
  EXPECT_EQ(svc.stats().faultModelCacheHits, 0u);

  std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
  const service::RequestResult warm = svc.run(1, job.request);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels()) << "warm (cache hit)";
  EXPECT_EQ(warm.opCount, oracle.opCount);
  EXPECT_EQ(svc.stats().faultModelCacheMisses, 4u);
  EXPECT_EQ(svc.stats().faultModelCacheHits, 4u);
}

/// The hammer's mixed workload: apps × designs × tenants × sizes, some
/// redundant, some faulty.
std::vector<ClientJob> hammerJobs() {
  std::vector<ClientJob> jobs;
  jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                         12, 1));
  jobs.push_back(makeJob(apps::AppKind::Compositing,
                         core::DesignKind::SwScSimd, 16, 2));
  jobs.push_back(makeJob(apps::AppKind::Matting, core::DesignKind::SwScSobol,
                         12, 3));
  jobs.push_back(makeJob(apps::AppKind::Filters, core::DesignKind::SwScLfsr,
                         16, 4, 3));
  jobs.push_back(makeJob(apps::AppKind::Bilinear, core::DesignKind::BinaryCim,
                         8, 5));
  jobs.push_back(makeJob(apps::AppKind::Morphology,
                         core::DesignKind::SwScSimd, 12, 6));
  jobs.push_back(makeJob(apps::AppKind::Compositing,
                         core::DesignKind::ReramSc, 12, 7));
  jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                         12, 8));
  // Fault injection must stay deterministic under batching too.
  jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                         12, 9));
  jobs.back().request.faults.transientFlipRate = 1e-3;
  jobs.back().request.faults.stuckAtRate = 0.01;
  return jobs;
}

/// The hammer jobs' solo outputs: one request in flight at a time, inline
/// execution, tenant i % 3.
std::vector<std::vector<std::uint8_t>> soloHammerOutputs() {
  std::vector<std::vector<std::uint8_t>> solo;
  ServiceConfig sc = smallServiceConfig();
  sc.maxBatch = 1;
  AcceleratorService svc(sc);
  auto jobs = hammerJobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    svc.run(static_cast<TenantId>(i % 3), jobs[i].request);
    solo.push_back(jobs[i].out.pixels());
  }
  return solo;
}

TEST(Service, DeterministicUnderBatchingAndTenantInterleaving) {
  const std::vector<std::vector<std::uint8_t>> solo = soloHammerOutputs();

  // Batched: several client threads hammer the same workload concurrently,
  // at different worker-thread counts.  Every output must match its solo
  // bytes exactly.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    ServiceConfig sc = smallServiceConfig();
    sc.workerThreads = workers;
    AcceleratorService svc(sc);
    auto jobs = hammerJobs();

    constexpr std::size_t kSubmitters = 3;
    std::vector<std::thread> clients;
    std::vector<std::vector<Ticket>> tickets(kSubmitters);
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      clients.emplace_back([&, t] {
        // Tenant t submits every (i % kSubmitters == t) job, interleaving
        // with the other tenants' submissions.
        for (std::size_t i = t; i < jobs.size(); i += kSubmitters) {
          tickets[t].push_back(
              svc.submit(static_cast<TenantId>(i % 3), jobs[i].request));
        }
      });
    }
    for (auto& c : clients) c.join();
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      for (const Ticket& ticket : tickets[t]) {
        EXPECT_TRUE(svc.waitOutcome(ticket).ok());
      }
    }

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(jobs[i].out.pixels(), solo[i])
          << "job " << i << " at " << workers << " worker threads";
    }
  }
}

TEST(Service, BackpressureBoundsTheQueue) {
  ServiceConfig sc = smallServiceConfig();
  sc.queueCapacity = 2;
  sc.startPaused = true;
  AcceleratorService svc(sc);

  auto a = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 1);
  auto b = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 2);
  auto c = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 3);

  const auto ta = svc.trySubmit(1, a.request);
  const auto tb = svc.trySubmit(1, b.request);
  ASSERT_TRUE(ta.has_value());
  ASSERT_TRUE(tb.has_value());
  EXPECT_EQ(svc.queueDepth(), 2u);
  // Queue full and the dispatcher paused: admission refuses.
  EXPECT_FALSE(svc.trySubmit(1, c.request).has_value());

  svc.resume();
  EXPECT_TRUE(svc.waitOutcome(*ta).ok());
  EXPECT_TRUE(svc.waitOutcome(*tb).ok());
  // Drained: admission works again.
  const auto tc = svc.trySubmit(1, c.request);
  ASSERT_TRUE(tc.has_value());
  EXPECT_TRUE(svc.waitOutcome(*tc).ok());
}

TEST(Service, BatchingCoalescesQueuedRequests) {
  ServiceConfig sc = smallServiceConfig();
  sc.startPaused = true;
  AcceleratorService svc(sc);

  std::vector<ClientJob> jobs;
  std::vector<Ticket> tickets;
  for (std::uint64_t i = 0; i < 4; ++i) {
    jobs.push_back(
        makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, i));
  }
  for (auto& job : jobs) tickets.push_back(svc.submit(1, job.request));
  svc.resume();
  for (const auto& t : tickets) {
    const service::RequestResult res = svc.waitOutcome(t).result;
    EXPECT_EQ(res.batchSize, 4u);  // all four were admitted together
  }

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requestsServed, 4u);
  EXPECT_EQ(stats.batches, 1u);
  ASSERT_GT(stats.batchOccupancy.size(), 4u);
  EXPECT_EQ(stats.batchOccupancy[4], 1u);
  EXPECT_DOUBLE_EQ(stats.meanOccupancy(), 4.0);
}

TEST(Service, EachRequestResolvesOnItsOwnLanes) {
  // A heavy and a light request admitted together.  The heavy one's four
  // lanes hold four workers; the light one runs on the fifth and resolves
  // while the heavy one is still running, timed by its own execution.
  ServiceConfig sc = smallServiceConfig();
  sc.workerThreads = sc.lanes + 1;
  sc.startPaused = true;
  AcceleratorService svc(sc);

  // Table IV faulty ReRAM-SC at 64²: the cold fault table's Monte-Carlo
  // runs inside the lanes.
  ClientJob heavy = makeJob(apps::AppKind::Compositing,
                            core::DesignKind::ReramSc, 64, 11);
  heavy.request.faults =
      reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice());
  ClientJob light = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                            8, 12);
  const Ticket th = svc.submit(1, heavy.request);
  const Ticket tl = svc.submit(2, light.request);
  svc.resume();

  const service::TicketOutcome lo = svc.waitOutcome(tl);
  EXPECT_FALSE(svc.poll(th)) << "the light request waited for the heavy one";
  const service::TicketOutcome ho = svc.waitOutcome(th);
  ASSERT_EQ(lo.status, service::TicketStatus::Ok);
  ASSERT_EQ(ho.status, service::TicketStatus::Ok);
  EXPECT_EQ(lo.result.batchSize, 2u);
  EXPECT_EQ(ho.result.batchSize, 2u);
  EXPECT_LT(lo.result.execMicros, ho.result.execMicros);
}

TEST(Service, ShutdownDrainsRequestsInFlight) {
  // shutdown() right after the submits: requests still queued AND requests
  // whose lanes are running on the pool must all resolve, with solo bytes.
  const std::vector<std::vector<std::uint8_t>> solo = soloHammerOutputs();

  ServiceConfig sc = smallServiceConfig();
  sc.workerThreads = 3;
  AcceleratorService svc(sc);
  auto jobs = hammerJobs();
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    tickets.push_back(svc.submit(static_cast<TenantId>(i % 3),
                                 jobs[i].request));
  }
  svc.shutdown();

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(svc.waitOutcome(tickets[i]).status, service::TicketStatus::Ok)
        << "job " << i;
    EXPECT_EQ(jobs[i].out.pixels(), solo[i]) << "job " << i;
  }
  EXPECT_EQ(svc.stats().requestsServed, jobs.size());
}

TEST(Service, TenantLedgersBillCostAndNamespacesReseed) {
  AcceleratorService svc(smallServiceConfig());

  auto a = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 12, 5);
  auto b = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 12, 5);
  auto c = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 12, 5, 3);

  svc.setTenantSeedNamespace(2, 0xfeedULL);
  svc.run(1, a.request);
  svc.run(2, b.request);  // same request, different seed universe
  svc.run(1, c.request);  // redundancy bills 3 replicas

  EXPECT_NE(a.out.pixels(), b.out.pixels());

  const service::TenantLedger one = svc.tenantLedger(1);
  const service::TenantLedger two = svc.tenantLedger(2);
  EXPECT_EQ(one.requests, 2u);
  EXPECT_EQ(one.replicasRun, 4u);  // 1 + 3
  EXPECT_EQ(one.pixels, 2u * 12 * 12);
  EXPECT_GT(one.opCount, 0u);
  EXPECT_EQ(two.requests, 1u);
  EXPECT_EQ(two.seedNamespace, 0xfeedULL);
  // Unknown tenants read as a blank bill.
  EXPECT_EQ(svc.tenantLedger(99).requests, 0u);
}

TEST(Service, ValidationRejectsMalformedRequests) {
  AcceleratorService svc(smallServiceConfig());

  // Missing frames.
  Request empty;
  EXPECT_THROW(svc.submit(1, empty), std::invalid_argument);

  // Compositing without aux frames.
  auto solo = makeJob(apps::AppKind::Compositing, core::DesignKind::SwScLfsr,
                      8, 1);
  Request q = solo.request;
  q.aux2 = img::ImageView{};
  EXPECT_THROW(svc.submit(1, q), std::invalid_argument);

  // Output buffer of the wrong shape.
  auto bad = makeJob(apps::AppKind::Bilinear, core::DesignKind::SwScLfsr, 8, 1);
  img::Image wrong(8, 8);  // upscale x2 needs 16x16
  bad.request.out = wrong;
  EXPECT_THROW(svc.submit(1, bad.request), std::invalid_argument);

  // Zero replicas.
  auto z = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 1);
  z.request.redundancy.replicas = 0;
  EXPECT_THROW(svc.submit(1, z.request), std::invalid_argument);

  // Tickets are single-redemption; unknown ids throw.
  auto ok = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 1);
  const Ticket t = svc.submit(1, ok.request);
  EXPECT_TRUE(svc.waitOutcome(t).ok());
  EXPECT_THROW(svc.waitOutcome(t), std::invalid_argument);
  EXPECT_THROW(svc.waitOutcome(Ticket{123456}), std::invalid_argument);
  EXPECT_TRUE(svc.poll(t));  // resolved/redeemed polls as done
}

TEST(Service, PollTransitionsAndShutdownDrains) {
  ServiceConfig sc = smallServiceConfig();
  sc.startPaused = true;
  AcceleratorService svc(sc);

  auto job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 1);
  const Ticket t = svc.submit(1, job.request);
  EXPECT_FALSE(svc.poll(t));  // queued behind a paused dispatcher

  // shutdown() must resume and drain the queued request, not drop it.
  svc.shutdown();
  EXPECT_TRUE(svc.poll(t));
  EXPECT_TRUE(svc.waitOutcome(t).ok());
  EXPECT_EQ(job.out.width(), 8u);

  // Admission after shutdown fails loudly.
  auto late = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 2);
  EXPECT_THROW(svc.submit(1, late.request), std::runtime_error);
  EXPECT_FALSE(svc.trySubmit(1, late.request).has_value());
}

TEST(Service, SubmitAfterShutdownFailsOnEveryAdmissionPath) {
  AcceleratorService svc(smallServiceConfig());
  auto before = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 7);
  svc.run(1, before.request);
  svc.shutdown();
  svc.shutdown();  // idempotent

  auto late = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 8);
  EXPECT_THROW(svc.submit(1, late.request), std::runtime_error);
  EXPECT_FALSE(svc.trySubmit(1, late.request).has_value());
  EXPECT_THROW(svc.run(1, late.request), std::runtime_error);
  // A rejected submission must not leak a redeemable ticket, and the
  // pre-shutdown bill stays readable.
  EXPECT_THROW(svc.waitOutcome(Ticket{before.request.seed}),
               std::invalid_argument);
  EXPECT_EQ(svc.tenantLedger(1).requests, 1u);
  EXPECT_EQ(svc.stats().requestsServed, 1u);
}

TEST(Service, MidRunPauseBackpressuresAtFullQueue) {
  // Unlike BackpressureBoundsTheQueue (which starts paused), this pauses a
  // service that has already executed work.  pause() gates the NEXT batch:
  // a single popBatch already in flight may drain one more job, so the
  // bound while paused is queueCapacity admitted + at most one slipped.
  ServiceConfig sc = smallServiceConfig();
  sc.queueCapacity = 2;
  sc.maxBatch = 1;
  AcceleratorService svc(sc);

  auto warm = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 1);
  svc.run(1, warm.request);

  svc.pause();
  std::vector<ClientJob> jobs;
  std::vector<Ticket> accepted;
  int refusedAt = -1;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(
        makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 2 + i));
    const auto t = svc.trySubmit(1, jobs.back().request);
    if (!t.has_value()) {
      refusedAt = i;
      break;
    }
    accepted.push_back(*t);
  }
  // Backpressure MUST engage: capacity 2, at most 1 slipped past the gate.
  ASSERT_GE(refusedAt, 2);
  ASSERT_LE(refusedAt, 3);
  EXPECT_LE(svc.queueDepth(), 2u);

  // Nothing accepted is lost: resume drains every admitted ticket, and the
  // refused job admits cleanly afterwards.
  svc.resume();
  for (const Ticket& t : accepted) EXPECT_TRUE(svc.waitOutcome(t).ok());
  const auto tc = svc.trySubmit(1, jobs.back().request);
  ASSERT_TRUE(tc.has_value());
  EXPECT_TRUE(svc.waitOutcome(*tc).ok());
  svc.shutdown();  // join the dispatcher so the served counter is final
  EXPECT_EQ(svc.stats().requestsServed, 2u + accepted.size());
}

TEST(Service, ZeroPixelRequestsAreRejectedAtAdmission) {
  AcceleratorService svc(smallServiceConfig());

  // A zero-pixel frame (non-null pointer, 0x0 geometry) is not a
  // degenerate success — it is refused up front on every admission path,
  // without touching the queue or the ledgers.
  std::uint8_t px = 0;
  Request q;
  q.app = apps::AppKind::Gamma;
  q.design = core::DesignKind::SwScLfsr;
  q.streamLength = 64;
  q.src = img::ImageView(&px, 0, 0);
  q.out = img::ImageSpan(&px, 0, 0);
  EXPECT_THROW(svc.submit(1, q), std::invalid_argument);
  EXPECT_THROW(svc.trySubmit(1, q), std::invalid_argument);
  EXPECT_THROW(svc.run(1, q), std::invalid_argument);

  // Zero-pixel output against a real source is a shape error, same path.
  auto ok = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 1);
  Request bad = ok.request;
  bad.out = img::ImageSpan(&px, 0, 0);
  EXPECT_THROW(svc.submit(1, bad), std::invalid_argument);

  EXPECT_EQ(svc.queueDepth(), 0u);
  EXPECT_EQ(svc.tenantLedger(1).requests, 0u);
  EXPECT_EQ(svc.stats().requestsServed, 0u);
}

TEST(Service, WaitOutcomeForTimesOutWithoutRedeemingTheTicket) {
  ServiceConfig sc = smallServiceConfig();
  sc.startPaused = true;
  AcceleratorService svc(sc);

  auto job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 8, 9);
  const Ticket t = svc.submit(1, job.request);

  // Timing out leaves the ticket redeemable — callers can poll with short
  // deadlines and still collect later.
  EXPECT_FALSE(
      svc.waitOutcomeFor(t, std::chrono::microseconds(500)).has_value());
  EXPECT_FALSE(
      svc.waitOutcomeFor(t, std::chrono::microseconds(500)).has_value());
  EXPECT_FALSE(svc.poll(t));

  svc.resume();
  const auto res = svc.waitOutcomeFor(t, std::chrono::seconds(30));
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->status, service::TicketStatus::Ok);
  EXPECT_EQ(res->result.batchSize, 1u);

  // A resolved waitOutcomeFor redeems the ticket exactly like waitOutcome.
  EXPECT_THROW(svc.waitOutcomeFor(t, std::chrono::seconds(1)),
               std::invalid_argument);
  EXPECT_THROW(
      svc.waitOutcomeFor(Ticket{424242}, std::chrono::microseconds(1)),
      std::invalid_argument);
}

}  // namespace
}  // namespace aimsc
