// Sharded lane-fleet fan-out under measurement: the sharded AcceleratorService
// (fork()ed workers over socketpairs, byte-exact wire codec) against the
// one-shot runner oracle, at shard counts {1, 2, 4}.
//
// The headline numbers here are CONTRACTS, not speedups: on a 1-CPU host
// the fan-out buys resilience and address-space isolation, not wall-clock.
// What the JSON gates (scripts/compare_bench.py --require-true in CI) is
// the determinism theorem of docs/SHARDING.md — merged output bytes and
// cost ledgers are a pure function of the request, identical for every
// shard count and equal to one-shot apps::runApp.
//
// Phases:
//   0. codec check    — every traffic request encode/decode round-trips
//                       bit-exactly; mean wire frame size recorded
//   1. solo oracle    — apps::runAppDetailed on the matching lane fleet
//                       (lanes=4, threads=1, rowsPerTile=4)
//   2. shard sweep    — one request at a time through sharded services
//                       with 1, 2, 4 subprocess workers; every output
//                       byte-compared to the oracle
//   3. sharded daemon — AcceleratorService with shards=2 and batching;
//                       outputs byte-compared to the oracle again
//   4. chaos recovery — supervised 2-shard fabric under a ShardFaultPlan
//                       firing every site (drop/crash/hang/garbage) on a
//                       quarter of all dispatches; every recovered output
//                       byte-compared to the oracle, recovery latency and
//                       retry counts recorded, a hard per-request wall
//                       bound proving "error, never hang"
//   5. degraded mode  — shard 0's worker SIGKILLed with zero retry budget;
//                       its frames re-dispatch to the survivor and the
//                       bytes must STILL equal the oracle
//
// Results land in BENCH_shard.json (schema: docs/BENCHMARKS.md).  The
// recovery booleans are CI contracts (compare_bench.py --require-true);
// the recovery-latency percentiles measure the host and are informational.
//
// Usage: bench_shard [size] [rounds]   (default 64 4; CI smoke uses 32 2)
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/runner.hpp"
#include "img/synth.hpp"
#include "service/accelerator_service.hpp"
#include "shard/coordinator.hpp"
#include "shard/fault_plan.hpp"
#include "shard/supervisor.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"

namespace {

using namespace aimsc;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kLanes = 4;
constexpr std::size_t kRowsPerTile = 4;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One request shape in the traffic mix (client-owned frames).
struct TrafficItem {
  apps::AppKind app;
  core::DesignKind design;
  std::size_t size = 64;
  std::uint64_t seed = 0;
  reliability::FaultPlan faults{};
  std::size_t replicas = 1;

  apps::CompositingScene compositing;
  apps::MattingScene matting;
  img::Image src;
  std::size_t outWidth = 0, outHeight = 0;
};

service::Request requestFor(const TrafficItem& it, img::Image& out) {
  service::Request q;
  q.app = it.app;
  q.design = it.design;
  q.streamLength = 128;
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

/// Mixed traffic: all substrate families, including the paper's faulty
/// device corner with triple-modular redundancy riding the wire.
std::vector<TrafficItem> makeTraffic(std::size_t size) {
  std::vector<TrafficItem> items;
  auto add = [&](apps::AppKind app, core::DesignKind design,
                 std::uint64_t seed) -> TrafficItem& {
    TrafficItem it;
    it.app = app;
    it.design = design;
    it.size = size;
    it.seed = seed;
    items.push_back(std::move(it));
    return items.back();
  };
  add(apps::AppKind::Gamma, core::DesignKind::SwScLfsr, 201);
  add(apps::AppKind::Morphology, core::DesignKind::SwScSimd, 202);
  add(apps::AppKind::Compositing, core::DesignKind::ReramSc, 203);
  {
    auto& faulty = add(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                       204);
    faulty.faults = reliability::FaultPlan::deviceOnly(
        apps::defaultFaultyDevice(), 2000);
    faulty.replicas = 3;
  }
  add(apps::AppKind::Matting, core::DesignKind::SwScSobol, 205);
  add(apps::AppKind::Filters, core::DesignKind::BinaryCim, 206);
  for (auto& it : items) {
    it.outWidth = it.size;
    it.outHeight = it.size;
    switch (it.app) {
      case apps::AppKind::Compositing:
        it.compositing = apps::makeCompositingScene(it.size, it.size, it.seed);
        break;
      case apps::AppKind::Matting:
        it.matting = apps::makeMattingScene(it.size, it.size, it.seed);
        break;
      default:
        it.src = img::naturalScene(it.size, it.size, it.seed ^ 0xb111);
        break;
    }
  }
  return items;
}

/// The one-shot oracle on the matching lane fleet.
apps::RunResult oracleRun(const TrafficItem& it) {
  apps::RunConfig cfg;
  cfg.width = it.size;
  cfg.height = it.size;
  cfg.streamLength = 128;
  cfg.seed = it.seed;
  cfg.faults = it.faults;
  cfg.redundancy.replicas = it.replicas;
  apps::ParallelConfig par;
  par.lanes = 4;
  par.threads = 1;  // forces the lane-fleet path on every design
  par.rowsPerTile = 4;
  return apps::runAppDetailed(it.app, it.design, cfg, par);
}

/// Tight budgets for the chaos phases: an injected hang costs one 250ms
/// recv deadline, not the 5s default, and backoffs stay in single-digit ms.
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
  // maxRespawns is a LIFETIME budget per shard; sustained chaos burns one
  // respawn per injected fault, so the default (8) would declare shards
  // dead mid-sweep.  The sweep measures recovery, not the death budget.
  rp.maxRespawns = 100000;
  return rp;
}

/// A sharded service over \p shards subprocess workers that serves one
/// request at a time, so each run() is one request's replicas fanned out
/// across the shards in turn.
service::ServiceConfig shardedConfig(std::size_t shards) {
  service::ServiceConfig sc;
  sc.lanes = kLanes;
  sc.rowsPerTile = kRowsPerTile;
  sc.maxBatch = 1;
  sc.shards = shards;
  sc.shardTransport = shard::ShardTransportKind::Subprocess;
  return sc;
}

/// Nearest-rank percentile over an unsorted sample (0 when empty).
double percentileMs(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sample.size() - 1) + 0.5);
  return sample[std::min(rank, sample.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const long sizeArg = argc > 1 ? std::atol(argv[1]) : 64;
  const long roundsArg = argc > 2 ? std::atol(argv[2]) : 4;
  if (sizeArg < 8 || sizeArg > 1024 || roundsArg < 1 || roundsArg > 1000) {
    std::fprintf(stderr,
                 "usage: bench_shard [size in 8..1024] [rounds in 1..1000]\n");
    return 1;
  }
  const auto size = static_cast<std::size_t>(sizeArg);
  const auto rounds = static_cast<std::size_t>(roundsArg);

  std::vector<TrafficItem> items = makeTraffic(size);
  const std::size_t total = items.size() * rounds;
  std::printf(
      "Shard bench: %zu traffic items x %zu rounds at %zux%zu (N=128), "
      "fleet %zux%zu\n\n",
      items.size(), rounds, size, size, kLanes, kRowsPerTile);

  // --- phase 0: wire codec round-trip on the real traffic ------------------
  bool codecOk = true;
  std::size_t wireBytes = 0;
  for (const auto& it : items) {
    img::Image out(it.outWidth, it.outHeight);
    const service::Request q = requestFor(it, out);
    shard::TileAssignment assign;
    assign.laneSeedBase = q.seed;
    assign.laneStride = 2;
    assign.laneBegin = 1;
    assign.rowEnd = static_cast<std::uint32_t>(it.outHeight);
    const shard::WireRequest wq = shard::makeWireRequest(
        q, /*tenant=*/7, /*seedNamespace=*/0, q.seed, kLanes, kRowsPerTile,
        assign);
    const std::vector<std::uint8_t> bytes = shard::encodeRequest(wq);
    wireBytes += bytes.size();
    if (!(shard::decodeRequest(bytes) == wq)) codecOk = false;
  }
  const std::size_t wireBytesMean = wireBytes / items.size();
  std::printf("  codec round-trip: %s (mean request frame %zu bytes)\n",
              codecOk ? "bit-exact" : "MISMATCH (BUG)", wireBytesMean);

  // --- phase 1: solo one-shot oracle ---------------------------------------
  std::vector<apps::RunResult> oracle;
  oracle.reserve(items.size());
  Clock::time_point t0 = Clock::now();
  for (const auto& it : items) oracle.push_back(oracleRun(it));
  const double soloSecs = secondsSince(t0);
  std::printf("  solo one-shot oracle: %zu requests in %.2fs\n", items.size(),
              soloSecs);

  // --- phase 2: subprocess shard sweep -------------------------------------
  const std::size_t shardCounts[] = {1, 2, 4};
  double shardRps[3] = {0, 0, 0};
  bool matchesOneShot = codecOk;
  bool crossShardIdentical = true;
  std::vector<std::vector<std::uint8_t>> firstSweepBytes(items.size());
  for (std::size_t si = 0; si < 3; ++si) {
    const std::size_t shards = shardCounts[si];
    service::AcceleratorService svc(shardedConfig(shards));
    t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        img::Image out(items[i].outWidth, items[i].outHeight);
        svc.run(/*tenant=*/1, requestFor(items[i], out));
        if (r == 0) {
          if (out.pixels() != oracle[i].output.pixels()) {
            matchesOneShot = false;
          }
          if (si == 0) {
            firstSweepBytes[i] = out.pixels();
          } else if (out.pixels() != firstSweepBytes[i]) {
            crossShardIdentical = false;
          }
        }
      }
    }
    const double secs = secondsSince(t0);
    shardRps[si] = static_cast<double>(total) / secs;
    std::printf("  %zu subprocess shard%s: %zu requests in %.2fs (%.2f "
                "req/s)\n",
                shards, shards == 1 ? " " : "s", total, secs, shardRps[si]);
  }
  std::printf("  shard sweep vs one-shot bytes: %s; across shard counts: "
              "%s\n",
              matchesOneShot ? "identical" : "DIFFER (BUG)",
              crossShardIdentical ? "identical" : "DIFFER (BUG)");

  // --- phase 3: sharded daemon (shards=2 behind the request queue) ---------
  bool serviceMatches = true;
  double serviceRps = 0.0;
  {
    service::ServiceConfig sc;
    sc.lanes = kLanes;
    sc.rowsPerTile = kRowsPerTile;
    sc.maxBatch = 4;
    sc.shards = 2;
    sc.shardTransport = shard::ShardTransportKind::Subprocess;
    service::AcceleratorService svc(sc);
    std::vector<img::Image> outs;
    outs.reserve(total);
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& it : items) outs.emplace_back(it.outWidth, it.outHeight);
    }
    t0 = Clock::now();
    std::vector<service::Ticket> tickets;
    tickets.reserve(total);
    for (std::size_t g = 0; g < total; ++g) {
      tickets.push_back(
          svc.submit(1, requestFor(items[g % items.size()], outs[g])));
    }
    // A failed request leaves its output unwritten, which the byte check
    // below reports.
    for (const service::Ticket& t : tickets) svc.waitOutcome(t);
    const double secs = secondsSince(t0);
    serviceRps = static_cast<double>(total) / secs;
    for (std::size_t g = 0; g < total; ++g) {
      if (outs[g].pixels() != oracle[g % items.size()].output.pixels()) {
        serviceMatches = false;
      }
    }
    std::printf("  sharded daemon (2 shards): %zu requests in %.2fs (%.2f "
                "req/s), bytes %s\n",
                total, secs, serviceRps,
                serviceMatches ? "identical" : "DIFFER (BUG)");
  }

  // --- phase 4: chaos recovery (every fault site on 25% of dispatches) -----
  // With five sites at 0.25 each, ~76% of original dispatches suffer a
  // drop/crash/hang/garbage fault; the supervisor's deadline + retry +
  // respawn machinery must still deliver oracle bytes for every request,
  // and — the "error, never hang" contract — every request must complete
  // inside a hard wall bound derived from the budgets (30s here dwarfs
  // maxAttempts * (recv deadline + backoff) + execution).
  bool recoveredIdentical = true;
  bool noHang = true;
  std::uint64_t chaosRetries = 0, chaosRespawns = 0, chaosFaults = 0;
  double recoveryP50 = 0.0, recoveryP95 = 0.0;
  {
    service::ServiceConfig sc = shardedConfig(2);
    sc.shardDeadlines = chaosDeadlines();
    sc.shardRetry = chaosRetry();
    sc.shardFaults = shard::ShardFaultPlan::uniform(0xc4a05, 0.25);
    service::AcceleratorService svc(sc);
    std::vector<double> recoveryMs;  // latency of requests that recovered
    t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        img::Image out(items[i].outWidth, items[i].outHeight);
        const std::uint64_t retriesBefore = svc.stats().shardRetries;
        const Clock::time_point q0 = Clock::now();
        svc.run(/*tenant=*/1, requestFor(items[i], out));
        const double ms = secondsSince(q0) * 1e3;
        if (ms > 30000.0) noHang = false;
        if (svc.stats().shardRetries > retriesBefore) {
          recoveryMs.push_back(ms);
        }
        if (out.pixels() != oracle[i].output.pixels()) {
          recoveredIdentical = false;
        }
      }
    }
    const double secs = secondsSince(t0);
    const service::ServiceStats st = svc.stats();
    chaosRetries = st.shardRetries;
    chaosRespawns = st.shardRespawns;
    chaosFaults = st.shardFaultsInjected;
    if (st.deadShards != 0) recoveredIdentical = false;  // budget too small
    recoveryP50 = percentileMs(recoveryMs, 0.50);
    recoveryP95 = percentileMs(recoveryMs, 0.95);
    std::printf(
        "  chaos sweep (2 shards, all sites @ 0.25): %zu requests in %.2fs; "
        "%llu faults, %llu retries, %llu respawns; recovered latency "
        "p50 %.1fms p95 %.1fms; bytes %s, %s\n",
        total, secs, static_cast<unsigned long long>(chaosFaults),
        static_cast<unsigned long long>(chaosRetries),
        static_cast<unsigned long long>(chaosRespawns), recoveryP50,
        recoveryP95, recoveredIdentical ? "identical" : "DIFFER (BUG)",
        noHang ? "no hangs" : "HANG (BUG)");
  }

  // --- phase 5: degraded mode (dead shard's frames served by survivor) -----
  bool degradedIdentical = true;
  {
    service::ServiceConfig sc = shardedConfig(2);
    sc.shardDeadlines = chaosDeadlines();
    sc.shardRetry = chaosRetry();
    sc.shardRetry.maxAttempts = 1;  // first failure -> dead
    sc.shardRetry.maxRespawns = 0;
    service::AcceleratorService svc(sc);
    const int pid = svc.shardCoordinator()->fabric().workerPid(0);
    if (pid > 0) ::kill(pid, SIGKILL);
    for (std::size_t i = 0; i < items.size(); ++i) {
      img::Image out(items[i].outWidth, items[i].outHeight);
      svc.run(/*tenant=*/1, requestFor(items[i], out));
      if (out.pixels() != oracle[i].output.pixels()) degradedIdentical = false;
    }
    const service::ServiceStats st = svc.stats();
    if (st.deadShards != 1 || st.reassignedDispatches == 0) {
      degradedIdentical = false;  // the scenario itself failed to happen
    }
    std::printf("  degraded sweep (shard 0 dead, survivor serves both): %zu "
                "requests, %llu re-dispatches, bytes %s\n",
                items.size(),
                static_cast<unsigned long long>(st.reassignedDispatches),
                degradedIdentical ? "identical" : "DIFFER (BUG)");
  }

  const bool deterministic = codecOk && crossShardIdentical &&
                             matchesOneShot && serviceMatches &&
                             recoveredIdentical && degradedIdentical && noHang;
  FILE* f = std::fopen("BENCH_shard.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"width\": %zu,\n"
                 "  \"height\": %zu,\n"
                 "  \"stream_length\": 128,\n"
                 "  \"lanes\": %zu,\n"
                 "  \"rows_per_tile\": %zu,\n"
                 "  \"rounds\": %zu,\n"
                 "  \"requests\": %zu,\n"
                 "  \"wire_request_bytes_mean\": %zu,\n"
                 "  \"codec_round_trip_ok\": %s,\n"
                 "  \"shard1_rps\": %.3f,\n"
                 "  \"shard2_rps\": %.3f,\n"
                 "  \"shard4_rps\": %.3f,\n"
                 "  \"service_sharded_rps\": %.3f,\n"
                 "  \"deterministic_across_shards\": %s,\n"
                 "  \"matches_one_shot\": %s,\n"
                 "  \"service_sharded_matches_one_shot\": %s,\n"
                 "  \"recovered_byte_identical\": %s,\n"
                 "  \"degraded_byte_identical\": %s,\n"
                 "  \"no_hang_under_chaos\": %s,\n"
                 "  \"chaos_faults_injected\": %llu,\n"
                 "  \"chaos_retries\": %llu,\n"
                 "  \"chaos_respawns\": %llu,\n"
                 "  \"recovery_latency_ms_p50\": %.3f,\n"
                 "  \"recovery_latency_ms_p95\": %.3f\n"
                 "}\n",
                 size, size, kLanes, kRowsPerTile, rounds, total,
                 wireBytesMean, codecOk ? "true" : "false", shardRps[0],
                 shardRps[1], shardRps[2], serviceRps,
                 (crossShardIdentical && matchesOneShot) ? "true" : "false",
                 matchesOneShot ? "true" : "false",
                 serviceMatches ? "true" : "false",
                 recoveredIdentical ? "true" : "false",
                 degradedIdentical ? "true" : "false",
                 noHang ? "true" : "false",
                 static_cast<unsigned long long>(chaosFaults),
                 static_cast<unsigned long long>(chaosRetries),
                 static_cast<unsigned long long>(chaosRespawns), recoveryP50,
                 recoveryP95);
    std::fclose(f);
    std::puts("  wrote BENCH_shard.json");
  }
  return deterministic ? 0 : 1;
}
