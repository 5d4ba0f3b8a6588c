// Always-on accelerator service under load: open-loop generator driving
// mixed app/design/size traffic through AcceleratorService, against the
// status-quo serving loop (sequential one-shot apps::runApp per request).
//
// The daemon's edge is warm state, not different math: device-variability
// tenants (the Table IV serving scenario) pay the per-mat misdecision
// Monte-Carlo on EVERY one-shot call, while the service's FaultModelCache
// pays it once per (tenant plan, mat seed) and serves warm tables after —
// bit-identically (tests/test_service.cpp).  Concurrent requests also share
// the worker pool: each one's lane tasks run as soon as a worker is free.
//
// Phases:
//   1. solo reference   — maxBatch=1 service run of each traffic item (the
//                         byte oracle for determinism-under-batching)
//   2. sequential       — one-shot runApp per request, same lane fleet and
//                         thread budget, timed
//   3. batched service  — 3 client threads hammer the daemon, timed;
//                         every output byte-compared against phase 1
//   4. Poisson open loop — arrivals at ~75% of measured capacity; p50/p95/
//                         p99 service latency and batch-occupancy histogram
//
// Results land in BENCH_service.json (schema: docs/BENCHMARKS.md); the
// committed baseline is gated by scripts/compare_bench.py in CI.
//
// Usage: bench_service [size] [rounds]   (default 64 6; CI smoke uses 16 2)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "img/synth.hpp"
#include "service/accelerator_service.hpp"

namespace {

using namespace aimsc;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One recurring request shape in the traffic mix.  The owned frames model
/// a client that holds its input buffers; `seed` is fixed per item because
/// it models the tenant accelerator's RNG initialization, not per-frame
/// entropy — which is what lets the daemon keep fault tables warm.
struct TrafficItem {
  apps::AppKind app;
  core::DesignKind design;
  std::size_t size = 64;
  std::uint64_t seed = 0;
  service::TenantId tenant = 0;
  reliability::FaultPlan faults{};
  std::size_t replicas = 1;

  apps::CompositingScene compositing;
  apps::MattingScene matting;
  img::Image src;
  std::size_t outWidth = 0, outHeight = 0;
};

void synthesizeFrames(TrafficItem& it) {
  it.outWidth = it.size;
  it.outHeight = it.size;
  switch (it.app) {
    case apps::AppKind::Compositing:
      it.compositing = apps::makeCompositingScene(it.size, it.size, it.seed);
      break;
    case apps::AppKind::Matting:
      it.matting = apps::makeMattingScene(it.size, it.size, it.seed);
      break;
    case apps::AppKind::Bilinear:
      it.src = img::naturalScene(it.size, it.size, it.seed ^ 0xb111);
      it.outWidth = it.size * 2;
      it.outHeight = it.size * 2;
      break;
    default:
      it.src = img::naturalScene(it.size, it.size, it.seed ^ 0xb111);
      break;
  }
}

service::Request requestFor(const TrafficItem& it, img::Image& out) {
  service::Request q;
  q.app = it.app;
  q.design = it.design;
  q.streamLength = 256;
  q.seed = it.seed;
  q.faults = it.faults;
  q.redundancy.replicas = it.replicas;
  switch (it.app) {
    case apps::AppKind::Compositing:
      q.src = it.compositing.background;
      q.aux1 = it.compositing.foreground;
      q.aux2 = it.compositing.alpha;
      break;
    case apps::AppKind::Matting:
      q.src = it.matting.composite;
      q.aux1 = it.matting.background;
      q.aux2 = it.matting.foreground;
      break;
    default:
      q.src = it.src;
      break;
  }
  q.out = out;
  return q;
}

apps::RunConfig runConfigFor(const TrafficItem& it) {
  apps::RunConfig cfg;
  cfg.width = it.size;
  cfg.height = it.size;
  cfg.streamLength = 256;
  cfg.seed = it.seed;
  cfg.faults = it.faults;
  cfg.redundancy.replicas = it.replicas;
  return cfg;
}

/// Mixed traffic: 6 apps x 4 designs x 2 sizes x 3 tenants, two of them
/// serving with the paper's device-variability fault plans, one with
/// triple-modular redundancy.
std::vector<TrafficItem> makeTraffic(std::size_t size) {
  std::vector<TrafficItem> items;
  auto add = [&](apps::AppKind app, core::DesignKind design, std::size_t s,
                 std::uint64_t seed, service::TenantId tenant) -> TrafficItem& {
    TrafficItem it;
    it.app = app;
    it.design = design;
    it.size = s;
    it.seed = seed;
    it.tenant = tenant;
    items.push_back(std::move(it));
    return items.back();
  };
  add(apps::AppKind::Compositing, core::DesignKind::ReramSc, size, 101, 1)
      .faults = reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice());
  add(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, size, 102, 2);
  add(apps::AppKind::Matting, core::DesignKind::SwScSobol, size, 103, 3);
  add(apps::AppKind::Filters, core::DesignKind::SwScSimd, size, 104, 1);
  add(apps::AppKind::Morphology, core::DesignKind::ReramSc, size, 105, 2);
  {
    reram::DeviceParams corner = apps::defaultFaultyDevice();
    corner.sigmaHrs *= 1.25;  // second tenant, second device corner
    add(apps::AppKind::Compositing, core::DesignKind::ReramSc, size, 106, 3)
        .faults = reliability::FaultPlan::deviceOnly(corner);
  }
  add(apps::AppKind::Bilinear, core::DesignKind::SwScLfsr,
      std::max<std::size_t>(size / 2, 4), 107, 1);
  add(apps::AppKind::Filters, core::DesignKind::SwScLfsr, size, 108, 2)
      .replicas = 3;
  for (auto& it : items) synthesizeFrames(it);
  return items;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  const long sizeArg = argc > 1 ? std::atol(argv[1]) : 64;
  const long roundsArg = argc > 2 ? std::atol(argv[2]) : 6;
  if (sizeArg < 8 || sizeArg > 1024 || roundsArg < 1 || roundsArg > 1000) {
    std::fprintf(stderr,
                 "usage: bench_service [size in 8..1024] [rounds in "
                 "1..1000]\n");
    return 1;
  }
  const auto size = static_cast<std::size_t>(sizeArg);
  const auto rounds = static_cast<std::size_t>(roundsArg);

  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.maxBatch = 8;
  sc.queueCapacity = 64;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  sc.workerThreads = std::min<std::size_t>(hw, sc.lanes);

  std::vector<TrafficItem> items = makeTraffic(size);
  const std::size_t total = items.size() * rounds;
  std::printf(
      "Service bench: %zu traffic items x %zu rounds at %zux%zu (N=256), "
      "%zu worker threads\n\n",
      items.size(), rounds, size, size, sc.workerThreads);

  // --- phase 1: solo byte oracle (own daemon, no cross-request batching) --
  std::vector<std::vector<std::uint8_t>> soloBytes(items.size());
  {
    service::ServiceConfig solo = sc;
    solo.maxBatch = 1;
    service::AcceleratorService svc(solo);
    for (std::size_t i = 0; i < items.size(); ++i) {
      img::Image out(items[i].outWidth, items[i].outHeight);
      service::Request q = requestFor(items[i], out);
      svc.run(items[i].tenant, q);
      soloBytes[i] = out.pixels();
    }
  }
  std::puts("  solo reference outputs captured");

  // --- phase 2: sequential one-shot serving loop --------------------------
  // Same lane fleet and thread budget per request; every call re-pays
  // scene/fleet setup, including the faulty tenants' Monte-Carlo campaign.
  apps::ParallelConfig par;
  par.lanes = sc.lanes;
  par.threads = sc.workerThreads;
  par.rowsPerTile = sc.rowsPerTile;
  Clock::time_point t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& it : items) {
      apps::runApp(it.app, it.design, runConfigFor(it), par);
    }
  }
  const double seqSecs = secondsSince(t0);
  const double seqRps = static_cast<double>(total) / seqSecs;
  std::printf("  sequential one-shot: %zu requests in %.2fs (%.2f req/s)\n",
              total, seqSecs, seqRps);

  // --- phase 3: batched service, 3 client threads saturating the queue ----
  service::AcceleratorService svc(sc);
  std::vector<img::Image> outs;
  outs.reserve(total);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& it : items) outs.emplace_back(it.outWidth, it.outHeight);
  }
  t0 = Clock::now();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        // Submit the whole share first (backpressure-bounded), then drain:
        // keeps the queue full so the admission window stays full.
        std::vector<service::Ticket> mine;
        for (std::size_t g = c; g < total; g += 3) {
          const TrafficItem& it = items[g % items.size()];
          service::Request q = requestFor(it, outs[g]);
          mine.push_back(svc.submit(it.tenant, q));
        }
        // A failed request leaves its output unwritten, which the byte
        // check below reports.
        for (const service::Ticket& t : mine) svc.waitOutcome(t);
      });
    }
    for (auto& th : clients) th.join();
  }
  const double svcSecs = secondsSince(t0);
  const double svcRps = static_cast<double>(total) / svcSecs;
  const double speedup = svcRps / seqRps;
  std::printf("  batched service:     %zu requests in %.2fs (%.2f req/s)"
              " => %.2fx\n", total, svcSecs, svcRps, speedup);

  bool deterministic = true;
  for (std::size_t g = 0; g < total; ++g) {
    if (outs[g].pixels() != soloBytes[g % items.size()]) deterministic = false;
  }
  std::printf("  solo vs batched bytes: %s\n",
              deterministic ? "identical" : "DIFFER (BUG)");

  // --- phase 4: Poisson open loop at ~75% of measured capacity ------------
  const double offeredRps = 0.75 * svcRps;
  const std::size_t poissonCount = std::max<std::size_t>(2 * items.size(), 16);
  std::vector<img::Image> poissonOuts;
  poissonOuts.reserve(poissonCount);
  for (std::size_t g = 0; g < poissonCount; ++g) {
    const TrafficItem& it = items[g % items.size()];
    poissonOuts.emplace_back(it.outWidth, it.outHeight);
  }
  std::mt19937_64 rng(42);
  std::exponential_distribution<double> gap(offeredRps);
  std::vector<service::Ticket> tickets(poissonCount);
  t0 = Clock::now();
  for (std::size_t g = 0; g < poissonCount; ++g) {
    const TrafficItem& it = items[g % items.size()];
    service::Request q = requestFor(it, poissonOuts[g]);
    tickets[g] = svc.submit(it.tenant, q);
    std::this_thread::sleep_for(std::chrono::duration<double>(gap(rng)));
  }
  std::vector<double> latencies;
  latencies.reserve(poissonCount);
  for (std::size_t g = 0; g < poissonCount; ++g) {
    const service::TicketOutcome o = svc.waitOutcome(tickets[g]);
    if (!o.ok()) deterministic = false;  // a failed request breaks it too
    latencies.push_back(o.result.queueMicros + o.result.execMicros);
  }
  const double p50 = percentile(latencies, 0.50);
  const double p95 = percentile(latencies, 0.95);
  const double p99 = percentile(latencies, 0.99);
  std::printf(
      "  poisson open loop:   %zu arrivals at %.1f req/s, latency p50 "
      "%.0fus p95 %.0fus p99 %.0fus\n",
      poissonCount, offeredRps, p50, p95, p99);

  const service::ServiceStats stats = svc.stats();
  std::printf(
      "  batches: %llu (mean occupancy %.2f), fault-model cache: %llu hits / "
      "%llu misses (%zu tables)\n",
      static_cast<unsigned long long>(stats.batches), stats.meanOccupancy(),
      static_cast<unsigned long long>(stats.faultModelCacheHits),
      static_cast<unsigned long long>(stats.faultModelCacheMisses),
      stats.faultModelCacheSize);

  FILE* f = std::fopen("BENCH_service.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"width\": %zu,\n"
                 "  \"height\": %zu,\n"
                 "  \"stream_length\": 256,\n"
                 "  \"lanes\": %zu,\n"
                 "  \"rows_per_tile\": %zu,\n"
                 "  \"worker_threads\": %zu,\n"
                 "  \"max_batch\": %zu,\n"
                 "  \"rounds\": %zu,\n"
                 "  \"requests\": %zu,\n"
                 "  \"sequential_one_shot_rps\": %.3f,\n"
                 "  \"service_batched_rps\": %.3f,\n"
                 "  \"service_batched_speedup\": %.2f,\n"
                 "  \"deterministic_under_batching\": %s,\n"
                 "  \"batched_speedup_ge_1p5\": %s,\n",
                 size, size, sc.lanes, sc.rowsPerTile, sc.workerThreads,
                 sc.maxBatch, rounds, total, seqRps, svcRps, speedup,
                 deterministic ? "true" : "false",
                 speedup >= 1.5 ? "true" : "false");
    std::fprintf(f,
                 "  \"fault_model_cache\": {\n"
                 "    \"hits\": %llu,\n"
                 "    \"misses\": %llu,\n"
                 "    \"entries\": %zu\n"
                 "  },\n"
                 "  \"poisson\": {\n"
                 "    \"offered_rps\": %.2f,\n"
                 "    \"latency_p50_us\": %.1f,\n"
                 "    \"latency_p95_us\": %.1f,\n"
                 "    \"latency_p99_us\": %.1f\n"
                 "  },\n"
                 "  \"mean_batch_occupancy\": %.2f,\n"
                 "  \"batch_occupancy\": [",
                 static_cast<unsigned long long>(stats.faultModelCacheHits),
                 static_cast<unsigned long long>(stats.faultModelCacheMisses),
                 stats.faultModelCacheSize, offeredRps, p50, p95, p99,
                 stats.meanOccupancy());
    for (std::size_t k = 1; k < stats.batchOccupancy.size(); ++k) {
      std::fprintf(f, "%s%llu", k == 1 ? "" : ", ",
                   static_cast<unsigned long long>(stats.batchOccupancy[k]));
    }
    std::fprintf(f, "]\n}\n");
    std::fclose(f);
    std::puts("  wrote BENCH_service.json");
  }
  return deterministic ? 0 : 1;
}
