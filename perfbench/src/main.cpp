// aimsc_perfbench: one workload of the repository benchmark.
//
//   aimsc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//
// Drives the workload's requests through service::AcceleratorService from
// closed-loop client threads, checks every output byte against a one-shot
// apps::runAppDetailed oracle (FNV-1a-64 fingerprints), and prints one JSON
// object as its last stdout line.  --trace 0 measures the end-to-end
// metrics; --trace 1 measures the per-layer ledger (service spans, the
// layer replay, the shard probe) and writes a Chrome trace-event file to
// <out-dir>.  Exit status: 0 on a correct run, 1 on any wrong byte or
// failed request, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "energy/cost_model.hpp"
#include "ledger.hpp"
#include "reliability/fault_rng.hpp"
#include "replay.hpp"
#include "sc/simd_caps.hpp"
#include "service/accelerator_service.hpp"
#include "shard/wire.hpp"
#include "shard_probe.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
namespace svc = aimsc::service;
using aimsc::reram::EventCounts;

/// Decorator sampling period: about one clock read per 16 calls of a stage.
constexpr std::uint32_t kSampleEvery = 16;
/// Latency samples a window must collect: twenty beyond p90, so the tail
/// rests on more than the ten the percentile needs.
constexpr std::size_t kMinLatencySamples = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string outDir = ".bench_out";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val) != 0;
    } else if (key == "--out-dir") {
      a.outDir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.seconds <= 0 || a.seconds > 600) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  makeWorkload(a.workload, a.seed);  // validates the name
  return a;
}

std::uint64_t fingerprint(const std::vector<std::uint8_t>& bytes) {
  return aimsc::shard::fnv1a64(bytes);
}

// --- oracle ----------------------------------------------------------------

struct OracleEntry {
  std::uint64_t fnv = 0;
  EventCounts events;
  std::uint64_t opCount = 0;
  double ssimPct = 0;
};

std::vector<OracleEntry> computeOracle(const Workload& w) {
  std::vector<OracleEntry> out;
  for (const Item& it : w.items) {
    const aimsc::apps::RunResult r = aimsc::apps::runAppDetailed(
        it.app, it.design, runConfigFor(it), oracleParallelFor(w));
    out.push_back(OracleEntry{fingerprint(r.output.pixels()), r.events,
                              r.opCount, r.quality.ssimPct});
  }
  return out;
}

// --- set-up ----------------------------------------------------------------

struct Setup {
  std::unique_ptr<svc::AcceleratorService> service;
  double seconds = 0;
  std::vector<svc::RequestResult> warm;  ///< one result per item
  std::size_t mismatches = 0;            ///< bytes or ledgers off the oracle
};

/// Service construction plus one warm-up pass over every item.
Setup setUp(const Workload& w, const std::vector<OracleEntry>& oracle) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.service = std::make_unique<svc::AcceleratorService>(serviceConfigFor(w));
  std::vector<aimsc::img::Image> outs;
  outs.reserve(w.items.size());
  std::vector<svc::Ticket> tickets;
  for (const Item& it : w.items) {
    outs.emplace_back(it.outWidth, it.outHeight);
    tickets.push_back(
        s.service->submit(it.tenant, requestFor(it, outs.back())));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const svc::TicketOutcome o = s.service->waitOutcome(tickets[i]);
    s.warm.push_back(o.result);
    if (!o.ok() || fingerprint(outs[i].pixels()) != oracle[i].fnv ||
        o.result.events != oracle[i].events ||
        o.result.opCount != oracle[i].opCount) {
      ++s.mismatches;
    }
  }
  s.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return s;
}

// --- timed window ------------------------------------------------------------

struct WindowResult {
  std::vector<double> latencyMs;
  std::vector<double> queueMs;
  std::vector<double> execMs;
  double pixels = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatched = 0;
  std::size_t degraded = 0;
  double elapsedS = 0;

  double throughputRps() const {
    return elapsedS > 0 ? static_cast<double>(latencyMs.size()) / elapsedS : 0;
  }
  double pixelsPerS() const { return elapsedS > 0 ? pixels / elapsedS : 0; }
};

/// Closed loop: each client submits its next request only after
/// waitOutcome returned the previous one.  Each client walks the items in
/// cycles, each cycle a fresh permutation drawn from \p orderSeed: every
/// item keeps its share, while batch compositions vary instead of locking
/// into the few that fixed client offsets would repeat.  Clients stop once
/// \p seconds have passed and at least \p minSamples requests completed
/// (or after 3 x \p seconds in any case).
WindowResult runWindow(svc::AcceleratorService& service, const Workload& w,
                       const std::vector<OracleEntry>& oracle, double seconds,
                       std::size_t minSamples, std::uint64_t orderSeed,
                       SpanRecorder& rec, std::atomic<std::uint64_t>& nextId) {
  const std::size_t n = w.items.size();
  std::vector<WindowResult> perClient(w.clients);
  std::vector<std::exception_ptr> errors(w.clients);
  std::atomic<std::size_t> completed{0};
  const Clock::time_point start = Clock::now();
  const auto soft = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  const auto hard = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(3 * seconds));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      try {
        WindowResult& r = perClient[c];
        std::vector<aimsc::img::Image> outs;
        std::vector<svc::Request> requests;
        outs.reserve(n);
        for (const Item& it : w.items) {
          outs.emplace_back(it.outWidth, it.outHeight);
        }
        for (std::size_t i = 0; i < n; ++i) {
          requests.push_back(requestFor(w.items[i], outs[i]));
        }
        std::mt19937_64 rng(aimsc::reliability::mix64(orderSeed + c));
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        for (std::size_t k = 0;; ++k) {
          const Clock::time_point now = Clock::now();
          if (now >= hard || (now >= soft && completed.load() >= minSamples)) {
            break;
          }
          if (k % n == 0) std::shuffle(order.begin(), order.end(), rng);
          const std::size_t i = order[k % n];
          const std::uint64_t id = nextId++;
          ++r.attempted;
          const Clock::time_point t0 = Clock::now();
          const svc::Ticket ticket =
              service.submit(w.items[i].tenant, requests[i]);
          const svc::TicketOutcome o = service.waitOutcome(ticket);
          const Clock::time_point t1 = Clock::now();
          if (!o.ok()) {
            ++r.failed;
            continue;
          }
          ++completed;
          if (o.status == svc::TicketStatus::Degraded) ++r.degraded;
          if (fingerprint(outs[i].pixels()) != oracle[i].fnv) ++r.mismatched;
          r.latencyMs.push_back(msBetween(t0, t1));
          r.queueMs.push_back(o.result.queueMicros / 1000.0);
          r.execMs.push_back(o.result.execMicros / 1000.0);
          r.pixels += static_cast<double>(w.items[i].outPixels());
          const std::int64_t root = rec.add("service.request", t0, t1, -1, id);
          const auto q1 = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::micro>(
                                       o.result.queueMicros));
          const auto e1 = q1 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::micro>(
                                       o.result.execMicros));
          rec.add("service.queue_wait", t0, q1, root, id);
          rec.add("service.exec", q1, e1, root, id);
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  WindowResult all;
  all.elapsedS = std::chrono::duration<double>(Clock::now() - start).count();
  for (WindowResult& r : perClient) {
    all.latencyMs.insert(all.latencyMs.end(), r.latencyMs.begin(),
                         r.latencyMs.end());
    all.queueMs.insert(all.queueMs.end(), r.queueMs.begin(), r.queueMs.end());
    all.execMs.insert(all.execMs.end(), r.execMs.begin(), r.execMs.end());
    all.pixels += r.pixels;
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.mismatched += r.mismatched;
    all.degraded += r.degraded;
  }
  return all;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Builds one JSON object; values are inserted as given (already JSON).
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_.append(body_.empty() ? "\"" : ",\"")
        .append(jsonEscape(key))
        .append("\":")
        .append(json);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, std::string("\"").append(jsonEscape(v)).append("\""));
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// High-water RSS of this process plus the largest reaped child (the shard
/// workers).  Own memory comes from VmHWM: getrusage's ru_maxrss survives
/// execve, so it would also count the launching process.
double peakRssMb() {
  double selfKb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) selfKb = std::stod(line.substr(6));
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return (selfKb + static_cast<double>(children.ru_maxrss)) / 1024.0;
}

/// Cumulative (stolen, total) CPU ticks of the machine from /proc/stat: the
/// share the hypervisor gave to other guests while the benchmark ran.
std::pair<double, double> stealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0, steal = 0;
  for (int field = 0; field < 8; ++field) {
    double ticks = 0;
    if (!(stat >> ticks)) break;
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

std::string hostJson() {
  return JsonObject()
      .num("nproc", std::thread::hardware_concurrency())
      .str("simd", aimsc::sc::simdModeName(
                       aimsc::sc::resolveSimd(aimsc::sc::SimdMode::Auto)))
#if defined(__clang__)
      .str("compiler", "clang " __clang_version__)
#elif defined(__GNUC__)
      .str("compiler", "gcc " __VERSION__)
#else
      .str("compiler", "unknown")
#endif
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .done();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// What one mode of the run produced.
struct Outcome {
  std::vector<Metric> metrics;
  JsonObject info;
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< Failed tickets + wrong bytes in the window
  std::size_t mismatches = 0;  ///< wrong bytes outside the window
};

// --- end-to-end --------------------------------------------------------------

/// ReRAM-SC modelled cost per ReRAM-SC output pixel (N=256, TRNG charged),
/// from the summed service ledgers of one pass over the items.
struct SimCost {
  double energyNJPerPx = 0;
  double latencyNsPerPx = 0;
};

SimCost simCost(const Workload& w, const std::vector<svc::RequestResult>& res) {
  EventCounts events;
  double px = 0;
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    if (w.items[i].design != DesignKind::ReramSc) continue;
    events += res[i].events;
    px += static_cast<double>(w.items[i].outPixels());
  }
  if (px == 0) return {};
  const aimsc::energy::CostBreakdown c =
      aimsc::energy::CostModel(256, true).cost(events);
  return SimCost{c.totalEnergyNJ() / px, c.totalLatencyNs() / px};
}

Outcome endToEnd(const Args& args, const Workload& w,
                 const std::vector<OracleEntry>& oracle,
                 const std::vector<double>& setupS, Setup& setup) {
  std::atomic<std::uint64_t> nextId{1};
  SpanRecorder off(false);
  const auto [steal0, total0] = stealTicks();
  const WindowResult win =
      runWindow(*setup.service, w, oracle, args.seconds, kMinLatencySamples,
                args.seed, off, nextId);
  const auto [steal1, total1] = stealTicks();
  setup.service.reset();  // joins the pool, reaps the shard workers

  const double p90 = percentile(win.latencyMs, 0.9);
  const SimCost sim = simCost(w, setup.warm);
  double ssim = 0;
  for (const OracleEntry& o : oracle) ssim += o.ssimPct;
  ssim /= static_cast<double>(oracle.size());
  const double errorRate =
      static_cast<double>(win.failed + win.mismatched) /
      static_cast<double>(std::max<std::size_t>(win.attempted, 1));

  Outcome out;
  out.metrics = {
      {"setup_s", median(setupS), "s"},
      {"throughput_rps", win.throughputRps(), "1/s"},
      {"pixels_per_s", win.pixelsPerS(), "px/s"},
      {"latency_p50_ms", percentile(win.latencyMs, 0.5), "ms"},
      {"latency_p90_ms", p90, "ms"},
      {"success_pct", 100.0 * (1.0 - errorRate), "%"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"ssim_pct", ssim, "%"},
      {"sim_energy_nj_per_px", sim.energyNJPerPx, "nJ/px"},
      {"sim_latency_ns_per_px", sim.latencyNsPerPx, "sim-ns/px"},
  };
  out.info.num("error_rate", errorRate)
      .num("latency_samples", static_cast<double>(win.latencyMs.size()))
      .num("samples_beyond_p90",
           static_cast<double>(countAbove(win.latencyMs, p90)))
      .num("degraded", static_cast<double>(win.degraded))
      .num("window_s", win.elapsedS)
      .num("steal_pct", total1 > total0
                            ? 100.0 * (steal1 - steal0) / (total1 - total0)
                            : 0.0)
      .num("setups", static_cast<double>(setupS.size()));
  out.attempted = win.attempted;
  out.failed = win.failed + win.mismatched;
  return out;
}

// --- per-layer ledger --------------------------------------------------------

/// Aggregates replay results into per-request layer figures.
struct ReplayLedger {
  std::vector<double> fleetBuildMs, stage0Ms, stage1Ms, laneMs, imbalance,
      waveWaitMs, voteMs, costMs;
  std::map<std::string, StageTimes> substrate;
  std::map<std::string, std::size_t> substrateRequests;
  double laneTotalMs = 0;
  double stageTotalMs = 0;
  std::size_t mismatches = 0;

  void add(const Item& it, const ReplayResult& r, std::uint64_t oracleFnv) {
    fleetBuildMs.insert(fleetBuildMs.end(), r.fleetBuildMs.begin(),
                        r.fleetBuildMs.end());
    for (const WaveStats& ws : r.stage0) stage0Ms.push_back(ws.wallMs);
    for (const WaveStats& ws : r.stage1) stage1Ms.push_back(ws.wallMs);
    for (const auto* waves : {&r.stage0, &r.stage1}) {
      for (const WaveStats& ws : *waves) {
        laneMs.insert(laneMs.end(), ws.laneMs.begin(), ws.laneMs.end());
        for (const double ms : ws.laneMs) laneTotalMs += ms;
        if (ws.meanLaneMs() > 0) {
          imbalance.push_back(ws.maxLaneMs() / ws.meanLaneMs());
        }
        waveWaitMs.push_back(std::max(0.0, ws.wallMs - ws.maxLaneMs()));
      }
    }
    if (r.voteMs >= 0) voteMs.push_back(r.voteMs);
    costMs.push_back(r.costModelMs);
    const std::string sub = substrateOf(it.design);
    substrate[sub] += r.substrate;
    substrateRequests[sub] += 1;
    for (const Stage s : {Stage::Encode, Stage::Ops, Stage::Decode}) {
      stageTotalMs += r.substrate.estimatedNs(s) / 1e6;
    }
    if (fingerprint(r.pixels) != oracleFnv) ++mismatches;
  }

  double stageMs(const std::string& sub, Stage s) const {
    const auto it = substrate.find(sub);
    if (it == substrate.end()) return 0;
    return it->second.estimatedNs(s) / 1e6 /
           static_cast<double>(substrateRequests.at(sub));
  }
};

/// Cold FaultModelCache::get plus the Monte-Carlo fill of every (op,
/// pattern) entry the scouting ops query, for each faulty item's lane-0
/// table.  Mean ms per table; 0 when the workload has no device faults.
double faultModelBuildMs(const Workload& w, SpanRecorder& rec,
                         std::uint64_t& nextId) {
  using aimsc::reram::SlOp;
  std::vector<double> ms;
  for (const Item& it : w.items) {
    if (!it.faults.deviceVariability) continue;
    const std::uint64_t id = nextId++;
    const Clock::time_point t0 = Clock::now();
    const std::int64_t span = rec.begin("reram.fault_model_build", -1, id);
    svc::FaultModelCache cache;
    const auto model =
        cache.get(it.faults.device, (it.seed + 0x9e3779b97f4a7c15ull) ^ 0xf417,
                  it.faults.faultModelSamples);
    for (const SlOp op : {SlOp::And, SlOp::Nand, SlOp::Or, SlOp::Nor,
                          SlOp::Xor, SlOp::Xnor}) {
      model->worstCase(op, 2);
    }
    model->worstCase(SlOp::Maj3, 3);
    model->worstCase(SlOp::Not, 1);
    rec.end(span);
    ms.push_back(msBetween(t0, Clock::now()));
  }
  return mean(ms);
}

/// Exact simulated work per output pixel of each substrate family.
std::vector<Metric> perPixelCounts(const Workload& w,
                                   const std::vector<OracleEntry>& oracle) {
  std::map<std::string, double> px;
  double sl = 0, trng = 0, adc = 0, gates = 0, passes = 0;
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    const std::string sub = substrateOf(w.items[i].design);
    px[sub] += static_cast<double>(w.items[i].outPixels());
    const auto ops = static_cast<double>(oracle[i].opCount);
    if (sub == "reram") {
      sl += static_cast<double>(oracle[i].events.slReads);
      trng += static_cast<double>(oracle[i].events.trngBits);
      adc += static_cast<double>(oracle[i].events.adcConversions);
    } else if (sub == "bincim") {
      gates += ops;
    } else if (sub == "sc") {
      passes += ops;
    }
  }
  auto per = [&](double x, const char* sub) {
    return px[sub] > 0 ? x / px[sub] : 0.0;
  };
  return {{"reram.sl_reads_per_px", per(sl, "reram"), "1/px"},
          {"reram.trng_bits_per_px", per(trng, "reram"), "1/px"},
          {"reram.adc_per_px", per(adc, "reram"), "1/px"},
          {"bincim.gate_ops_per_px", per(gates, "bincim"), "1/px"},
          {"sc.op_passes_per_px", per(passes, "sc"), "1/px"}};
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

Outcome perLayer(const Args& args, const Workload& w,
                 const std::vector<OracleEntry>& oracle, Setup& setup,
                 ShardProbe& probe) {
  std::atomic<std::uint64_t> nextId{1};
  SpanRecorder off(false);
  SpanRecorder rec(true);
  Outcome out;

  // Untraced and traced halves of the window: the tracing overhead.
  svc::AcceleratorService& service = *setup.service;
  const WindowResult plain =
      runWindow(service, w, oracle, args.seconds / 2, kMinLatencySamples / 2,
                args.seed, off, nextId);
  const svc::ServiceStats before = service.stats();
  const WindowResult win =
      runWindow(service, w, oracle, args.seconds / 2, kMinLatencySamples / 2,
                args.seed + 1, rec, nextId);
  const svc::ServiceStats after = service.stats();
  setup.service.reset();
  out.attempted = plain.attempted + win.attempted;
  out.failed = plain.failed + plain.mismatched + win.failed + win.mismatched;

  double batches = 0, weighted = 0;
  for (std::size_t k = 1; k < after.batchOccupancy.size(); ++k) {
    const double was = k < before.batchOccupancy.size()
                           ? static_cast<double>(before.batchOccupancy[k])
                           : 0.0;
    const double d = static_cast<double>(after.batchOccupancy[k]) - was;
    batches += d;
    weighted += d * static_cast<double>(k);
  }
  const auto hits = static_cast<double>(after.faultModelCacheHits -
                                        before.faultModelCacheHits);
  const auto misses = static_cast<double>(after.faultModelCacheMisses -
                                          before.faultModelCacheMisses);
  const auto retries = static_cast<double>(
      after.shardRetries + after.shardTimeouts - before.shardRetries -
      before.shardTimeouts);

  // Layer replay: one untimed warm pass, then timed passes over every item
  // for a quarter of the window (at most 8).  The pool is min(nproc, 4)
  // wide for every workload: the sharded one runs a lane per worker
  // process, so its lanes run in parallel too.
  aimsc::core::ThreadPool pool(defaultWorkerThreads());
  svc::FaultModelCache cache;
  const svc::ExecShape shape{kLanes, kRowsPerTile};
  std::vector<aimsc::img::Image> outs;
  std::vector<svc::Request> requests;
  outs.reserve(w.items.size());
  for (const Item& it : w.items) {
    outs.emplace_back(it.outWidth, it.outHeight);
    requests.push_back(requestFor(it, outs.back()));
  }
  std::uint64_t id = nextId.load();
  for (const svc::Request& q : requests) {
    replayRequest(q, shape, cache, pool, off, id++, kSampleEvery);
  }
  ReplayLedger ledger;
  const Clock::time_point r0 = Clock::now();
  std::size_t passes = 0;
  do {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ledger.add(w.items[i],
                 replayRequest(requests[i], shape, cache, pool, rec, id++,
                               kSampleEvery),
                 oracle[i].fnv);
    }
    ++passes;
  } while (passes < 8 &&
           std::chrono::duration<double>(Clock::now() - r0).count() <
               args.seconds / 4);

  const double faultBuildMs = faultModelBuildMs(w, rec, id);
  std::vector<std::uint64_t> oracleFnv;
  for (const OracleEntry& o : oracle) oracleFnv.push_back(o.fnv);
  const ShardProbeResult sp = probe.run(w, oracleFnv, rec, id);
  out.mismatches = ledger.mismatches + sp.mismatches;

  const std::vector<Span> spans = rec.spans();
  const double plainRps = plain.throughputRps();
  const double tracedRps = win.throughputRps();
  out.metrics = {
      {"service.queue_wait_ms", percentile(win.queueMs, 0.5), "ms/req"},
      {"service.exec_ms", percentile(win.execMs, 0.5), "ms/req"},
      {"service.batch_occupancy", batches > 0 ? weighted / batches : 0,
       "req/batch"},
      {"service.fault_cache_hit_ratio",
       hits + misses > 0 ? hits / (hits + misses) : 1.0, "ratio"},
      {"core.fleet_build_ms", mean(ledger.fleetBuildMs), "ms/replica"},
      {"apps.stage0_ms", mean(ledger.stage0Ms), "ms/req"},
      {"apps.stage1_ms", mean(ledger.stage1Ms), "ms/req"},
      {"core.lane_busy_ms", mean(ledger.laneMs), "ms/lane"},
      {"core.lane_imbalance", mean(ledger.imbalance), "ratio"},
      {"core.wave_wait_ms", mean(ledger.waveWaitMs), "ms/wave"},
      {"core.lane_attributed_pct",
       ledger.laneTotalMs > 0 ? 100.0 * ledger.stageTotalMs / ledger.laneTotalMs
                              : 0,
       "%"},
  };
  for (const std::string sub : {"sc", "reram", "bincim"}) {
    out.metrics.push_back(
        {sub + ".encode_ms", ledger.stageMs(sub, Stage::Encode), "ms/req"});
    out.metrics.push_back(
        {sub + ".ops_ms", ledger.stageMs(sub, Stage::Ops), "ms/req"});
    out.metrics.push_back(
        {sub + ".decode_ms", ledger.stageMs(sub, Stage::Decode), "ms/req"});
  }
  for (Metric& m : perPixelCounts(w, oracle)) out.metrics.push_back(m);
  const std::vector<Metric> rest = {
      {"reram.fault_model_build_ms", faultBuildMs, "ms/table"},
      {"reliability.vote_ms", mean(ledger.voteMs), "ms/req"},
      {"energy.cost_model_ms", mean(ledger.costMs), "ms/req"},
      {"shard.encode_ms", sp.encodeMs, "ms/req"},
      {"shard.request_kb", sp.requestKb, "KiB/req"},
      {"shard.reply_kb", sp.replyKb, "KiB/req"},
      {"shard.decode_reply_ms", sp.decodeReplyMs, "ms/req"},
      {"shard.roundtrip_ms", sp.roundtripMs, "ms/frame"},
      {"shard.worker_serve_ms", sp.workerServeMs, "ms/frame"},
      {"shard.transport_ms", sp.roundtripMs - sp.workerServeMs, "ms/frame"},
      {"shard.coordinator_self_ms", sp.coordinatorSelfMs, "ms/req"},
      {"shard.retries", retries, "count"},
      {"trace.untraced_rps", plainRps, "1/s"},
      {"trace.traced_rps", tracedRps, "1/s"},
      {"trace.overhead_pct",
       plainRps > 0 ? 100.0 * (plainRps - tracedRps) / plainRps : 0, "%"},
      {"trace.coverage_pct", 100.0 * coverage(spans), "%"},
  };
  out.metrics.insert(out.metrics.end(), rest.begin(), rest.end());

  std::filesystem::create_directories(args.outDir);
  const std::string tracePath = args.outDir + "/trace-" + w.name + "-seed" +
                                std::to_string(args.seed) + ".json";
  writeFile(tracePath, chromeTraceJson(spans));
  std::fprintf(stderr, "wrote %s (%zu spans)\n\n  %-26s %8s %12s %12s\n",
               tracePath.c_str(), spans.size(), "layer span", "count",
               "total ms", "self ms");
  JsonObject layers;
  for (const auto& [name, t] : layerTotals(spans)) {
    std::fprintf(stderr, "  %-26s %8zu %12.3f %12.3f\n", name.c_str(), t.count,
                 t.totalUs / 1000, t.selfUs / 1000);
    layers.raw(name, JsonObject()
                         .num("count", static_cast<double>(t.count))
                         .num("total_ms", t.totalUs / 1000)
                         .num("self_ms", t.selfUs / 1000)
                         .done());
  }
  out.info.num("replay_passes", static_cast<double>(passes))
      .num("replay_mismatches", static_cast<double>(ledger.mismatches))
      .num("shard_probe_mismatches", static_cast<double>(sp.mismatches))
      .num("degraded", static_cast<double>(plain.degraded + win.degraded))
      .str("trace_file", tracePath)
      .raw("layers", layers.done());
  return out;
}

int run(const Args& args) {
  // Fork the shard probe's workers while the process is single-threaded.
  std::unique_ptr<ShardProbe> probe;
  if (args.trace) probe = std::make_unique<ShardProbe>();

  const Workload w = makeWorkload(args.workload, args.seed);
  std::fprintf(stderr, "workload %s seed %llu: %zu items, %zu clients, %zu "
               "worker threads, %zu shards\n", w.name.c_str(),
               static_cast<unsigned long long>(args.seed), w.items.size(),
               w.clients, w.workerThreads, w.shards);
  for (const Item& it : w.items) {
    std::fprintf(stderr, "  %s (seed %llu)\n", it.label().c_str(),
                 static_cast<unsigned long long>(it.seed));
  }

  const std::vector<OracleEntry> oracle = computeOracle(w);

  // Set-up: median of several (service construction + warm-up pass); at
  // least three, more while they fit in a fifth of the window.  A traced
  // run needs only the one service.
  std::vector<double> setupS;
  Setup setup = setUp(w, oracle);
  setupS.push_back(setup.seconds);
  std::size_t setupMismatches = setup.mismatches;
  double setupTotalS = setup.seconds;
  while (!args.trace && setupS.size() < 21 &&
         (setupS.size() < 3 || setupTotalS < args.seconds / 5)) {
    setup.service.reset();
    setup = setUp(w, oracle);
    setupS.push_back(setup.seconds);
    setupTotalS += setup.seconds;
    setupMismatches += setup.mismatches;
  }

  Outcome out = args.trace ? perLayer(args, w, oracle, setup, *probe)
                           : endToEnd(args, w, oracle, setupS, setup);
  out.mismatches += setupMismatches;
  const bool correct = out.failed == 0 && out.mismatches == 0;

  std::fprintf(stderr, "\n");
  JsonObject metrics;
  for (const Metric& m : out.metrics) {
    std::fprintf(stderr, "  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    metrics.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit)
                            .done());
  }
  std::fprintf(stderr, "  attempted %zu, failed or wrong %zu, other "
               "mismatches %zu -> %s\n", out.attempted, out.failed,
               out.mismatches, correct ? "correct" : "INCORRECT");
  const std::string result =
      JsonObject()
          .str("workload", w.name)
          .raw("seed", std::to_string(args.seed))
          .raw("trace", args.trace ? "1" : "0")
          .raw("host", hostJson())
          .raw("correct", correct ? "true" : "false")
          .raw("attempted", std::to_string(out.attempted))
          .raw("failed", std::to_string(out.failed))
          .raw("metrics", metrics.done())
          .raw("info", out.info.done())
          .done();
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aimsc_perfbench: %s\nusage: aimsc_perfbench "
                 "--workload <small_clean|paper_faulty|sharded_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aimsc_perfbench: %s\n", e.what());
    return 1;
  }
}
