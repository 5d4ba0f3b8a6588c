// The always-on accelerator as a client would use it: start the daemon,
// have three tenants submit mixed frames asynchronously (async tickets +
// one blocking call), then read the per-tenant bills and admission stats.
//
// Tenant 20 serves with the paper's Table IV device-fault plan: its first
// frame pays the misdecision Monte-Carlo, every later frame hits the
// daemon's warm fault-model cache — same bytes, a fraction of the cost
// (see bench_service / BENCH_service.json).
//
// Usage: service_daemon [size]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/runner.hpp"
#include "img/synth.hpp"
#include "service/accelerator_service.hpp"

int main(int argc, char** argv) {
  using namespace aimsc;

  const std::size_t size =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 32;

  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.maxBatch = 8;
  service::AcceleratorService daemon(sc);
  std::printf("daemon up: %zu lanes, <=%zu requests in flight, queue %zu "
              "deep\n\n",
              sc.lanes, sc.maxBatch, sc.queueCapacity);

  // Tenant 10: plain gamma frames on the CMOS-SC substrate.
  img::Image gammaSrc = img::naturalScene(size, size, 7 ^ 0xb111);
  img::Image gammaOut(size, size);
  service::Request gammaReq;
  gammaReq.app = apps::AppKind::Gamma;
  gammaReq.design = core::DesignKind::SwScLfsr;
  gammaReq.src = gammaSrc;
  gammaReq.out = gammaOut;
  gammaReq.seed = 7;

  // Tenant 20: ReRAM-SC compositing on faulty devices (Table IV serving).
  apps::CompositingScene scene = apps::makeCompositingScene(size, size, 9);
  img::Image faultyOut(size, size);
  service::Request faultyReq;
  faultyReq.app = apps::AppKind::Compositing;
  faultyReq.design = core::DesignKind::ReramSc;
  faultyReq.src = scene.background;
  faultyReq.aux1 = scene.foreground;
  faultyReq.aux2 = scene.alpha;
  faultyReq.out = faultyOut;
  faultyReq.seed = 9;
  faultyReq.faults =
      reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice());

  // Tenant 30: triple-modular-redundant smoothing in its own seed universe.
  daemon.setTenantSeedNamespace(30, 0x30aa);
  img::Image filterSrc = img::naturalScene(size, size, 3 ^ 0xb111);
  img::Image filterOut(size, size);
  service::Request filterReq;
  filterReq.app = apps::AppKind::Filters;
  filterReq.design = core::DesignKind::SwScSimd;
  filterReq.src = filterSrc;
  filterReq.out = filterOut;
  filterReq.seed = 3;
  filterReq.redundancy.replicas = 3;

  // Async submits from two tenants, then a blocking run from the third —
  // all three may be in flight at once, sharing the worker pool.
  std::vector<service::Ticket> tickets;
  for (int frame = 0; frame < 3; ++frame) {
    tickets.push_back(daemon.submit(10, gammaReq));
    tickets.push_back(daemon.submit(20, faultyReq));
  }
  const service::RequestResult tmr = daemon.run(30, filterReq);
  std::printf("tenant 30 (TMR filter): admitted with %zu, queue %.0fus, "
              "exec %.0fus\n", tmr.batchSize, tmr.queueMicros, tmr.execMicros);

  for (const service::Ticket& t : tickets) {
    const service::RequestResult r = daemon.waitOutcome(t).result;
    std::printf("ticket %llu: admitted with %zu, queue %.0fus, exec %.0fus\n",
                static_cast<unsigned long long>(t.id), r.batchSize,
                r.queueMicros, r.execMicros);
  }

  std::puts("\nper-tenant bills:");
  for (const service::TenantId tenant : {10u, 20u, 30u}) {
    const service::TenantLedger bill = daemon.tenantLedger(tenant);
    std::printf(
        "  tenant %u: %llu requests, %llu replicas, %llu px, %llu ops, "
        "%llu SL reads\n",
        tenant, static_cast<unsigned long long>(bill.requests),
        static_cast<unsigned long long>(bill.replicasRun),
        static_cast<unsigned long long>(bill.pixels),
        static_cast<unsigned long long>(bill.opCount),
        static_cast<unsigned long long>(bill.events.slReads));
  }

  const service::ServiceStats stats = daemon.stats();
  std::printf(
      "\nservice: %llu requests in %llu admissions (mean %.2f per admission), "
      "fault tables: %llu hits / %llu misses\n",
      static_cast<unsigned long long>(stats.requestsServed),
      static_cast<unsigned long long>(stats.batches), stats.meanOccupancy(),
      static_cast<unsigned long long>(stats.faultModelCacheHits),
      static_cast<unsigned long long>(stats.faultModelCacheMisses));

  daemon.shutdown();
  std::puts("daemon drained and stopped");
  return 0;
}
