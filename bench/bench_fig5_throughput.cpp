// Reproduces paper Fig. 5: normalized throughput of the CMOS-based and
// ReRAM-based SC designs over the binary CIM reference (ref = 1.0).
//
// Part 2 measures the *simulator's* wall-clock throughput: the serial
// backend-generic kernel vs the same kernel on the tile-parallel engine
// (batched IMSNG + lane-pinned row tiles) across worker-thread counts,
// verifying that the tiled output is bit-identical at every thread count.
//
// Part 3 measures the software-SC substrate: the scalar SwScBackend oracle
// (it walks each epoch's generator) against SwScSimdBackend, the bulk
// engine every SW-SC design runs on (LFSR draws from the one 255-state
// cycle + packed comparator), verifying the two are bit-identical per
// seed.
//
// Results are also written to BENCH_throughput.json so the perf trajectory
// is machine-trackable.
//
// Usage: bench_fig5_throughput [size]   (default 256; CI smoke uses 32)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "core/backend_swsc.hpp"
#include "core/backend_swsc_simd.hpp"
#include "energy/report.hpp"
#include "energy/system_model.hpp"
#include "sc/bulk_sng.hpp"

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepPoint {
  std::size_t threads;
  double pixelsPerSec;
  double speedup;
};

struct WidthPoint {
  aimsc::sc::SimdMode mode;
  double pps = 0;
  bool bitIdentical = false;  ///< vs the forced-portable run
};

struct SwScResult {
  double scalarPps = 0;
  double simdPps = 0;  ///< Auto = the widest supported path
  double simdTiledPps = 0;
  bool bitIdentical = false;
  const char* simdWidth = "portable";  ///< what Auto resolved to
  std::vector<WidthPoint> widths;      ///< portable..avx512 sweep
  double sfmtScalarPps = 0;
  double sfmtSimdPps = 0;
  bool sfmtBitIdenticalToScalar = false;
  bool sfmtBitIdenticalToPortable = false;
};

/// Best-of-\p reps wall clock of one freshly seeded kernel run per rep
/// (identical seeds, so every rep computes the same bits): small smoke
/// sizes finish in a couple of milliseconds, where a single sample is
/// dominated by scheduler noise — the best sample is the least-preempted
/// one.  \p run must build its backend per call so no state carries over.
template <typename RunFn>
double bestSeconds(int reps, RunFn&& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const double sec = run();
    if (sec < best) best = sec;
  }
  return best;
}

/// Part 3: the software-SC substrate — scalar oracle vs bulk engine (same
/// design point, same seed, bit-identical output by contract), the full width
/// ladder (each explicit request clamps down on weak hosts, so every entry
/// is measurable everywhere), and the SFMT epoch-source family.
SwScResult measuredSwScSweep(std::size_t size,
                             const aimsc::apps::CompositingScene& scene) {
  using namespace aimsc;
  const auto kPixels = static_cast<double>(size * size);
  const int reps = 5;  // ~10-20ms per rep even at 256; best-of damps CI noise
  SwScResult r;
  r.simdWidth = sc::simdModeName(sc::resolveSimd(sc::SimdMode::Auto));

  core::SwScConfig scalarCfg;
  scalarCfg.streamLength = 256;
  img::Image scalarOut;
  r.scalarPps = kPixels / bestSeconds(reps, [&] {
    core::SwScBackend b(scalarCfg);
    const auto t0 = std::chrono::steady_clock::now();
    scalarOut = apps::compositeKernel(scene, b);
    return secondsSince(t0);
  });

  const auto runSimd = [&](core::SwScSng sng, sc::SimdMode mode,
                           img::Image& out) {
    core::SwScSimdConfig cfg;
    cfg.streamLength = 256;
    cfg.sng = sng;
    cfg.simd = mode;
    return kPixels / bestSeconds(reps, [&] {
      core::SwScSimdBackend b(cfg);
      const auto t0 = std::chrono::steady_clock::now();
      out = apps::compositeKernel(scene, b);
      return secondsSince(t0);
    });
  };

  img::Image simdOut;
  r.simdPps = runSimd(core::SwScSng::Lfsr, sc::SimdMode::Auto, simdOut);
  r.bitIdentical = simdOut.pixels() == scalarOut.pixels();

  // Width ladder, each rung against the forced-portable bits.
  img::Image portableOut;
  for (const sc::SimdMode mode :
       {sc::SimdMode::Portable, sc::SimdMode::Sse2, sc::SimdMode::Avx2,
        sc::SimdMode::Avx512}) {
    WidthPoint p;
    p.mode = mode;
    img::Image out;
    p.pps = runSimd(core::SwScSng::Lfsr, mode, out);
    if (mode == sc::SimdMode::Portable) portableOut = out;
    p.bitIdentical = out.pixels() == portableOut.pixels();
    r.widths.push_back(p);
  }

  // SFMT family: scalar reference vs the BulkSfmt-prefetching SIMD engine.
  core::SwScConfig sfmtCfg;
  sfmtCfg.streamLength = 256;
  sfmtCfg.sng = core::SwScSng::Sfmt;
  img::Image sfmtScalarOut;
  r.sfmtScalarPps = kPixels / bestSeconds(reps, [&] {
    core::SwScBackend b(sfmtCfg);
    const auto t0 = std::chrono::steady_clock::now();
    sfmtScalarOut = apps::compositeKernel(scene, b);
    return secondsSince(t0);
  });
  img::Image sfmtSimdOut;
  r.sfmtSimdPps = runSimd(core::SwScSng::Sfmt, sc::SimdMode::Auto, sfmtSimdOut);
  r.sfmtBitIdenticalToScalar = sfmtSimdOut.pixels() == sfmtScalarOut.pixels();
  img::Image sfmtPortableOut;
  runSimd(core::SwScSng::Sfmt, sc::SimdMode::Portable, sfmtPortableOut);
  r.sfmtBitIdenticalToPortable =
      sfmtSimdOut.pixels() == sfmtPortableOut.pixels();

  // SIMD x tile-parallel: the two speedup axes compose.
  core::ParallelConfig par;
  par.threads = 4;
  core::BackendFactoryConfig fleetCfg;
  fleetCfg.streamLength = 256;
  fleetCfg.seed = scalarCfg.seed;
  core::TileExecutor exec(
      core::makeBackendLanes(core::DesignKind::SwScLfsr, fleetCfg, par.lanes),
      par);
  const auto t0 = std::chrono::steady_clock::now();
  apps::runTiled(apps::framesOf(scene), exec);
  r.simdTiledPps = kPixels / secondsSince(t0);

  std::printf(
      "\nSoftware-SC substrate: %zux%zu compositing, N=256 "
      "(auto width: %s; AVX2 %s, AVX-512BW %s)\n"
      "  scalar oracle (LFSR):     %10.0f pixels/s\n"
      "  bulk engine, serial:      %10.0f pixels/s (%.1fx scalar)\n"
      "  bulk engine, 4 threads:   %10.0f pixels/s (%.1fx scalar)\n"
      "  SIMD bit-identical to scalar: %s\n",
      size, size, r.simdWidth, sc::cpuHasAvx2() ? "available" : "absent",
      sc::cpuHasAvx512bw() ? "available" : "absent", r.scalarPps, r.simdPps,
      r.simdPps / r.scalarPps, r.simdTiledPps, r.simdTiledPps / r.scalarPps,
      r.bitIdentical ? "yes" : "NO (BUG)");
  for (const WidthPoint& p : r.widths) {
    std::printf("  width %-8s: %10.0f pixels/s (%.1fx scalar), %s portable\n",
                sc::simdModeName(p.mode), p.pps, p.pps / r.scalarPps,
                p.bitIdentical ? "bit-identical to" : "DIVERGES FROM (BUG)");
  }
  std::printf(
      "  SFMT scalar backend:      %10.0f pixels/s\n"
      "  SFMT SIMD backend:        %10.0f pixels/s (%.1fx SFMT scalar)\n"
      "  SFMT bit-identical: scalar %s, portable %s\n",
      r.sfmtScalarPps, r.sfmtSimdPps, r.sfmtSimdPps / r.sfmtScalarPps,
      r.sfmtBitIdenticalToScalar ? "yes" : "NO (BUG)",
      r.sfmtBitIdenticalToPortable ? "yes" : "NO (BUG)");
  return r;
}

void measuredSweep(std::size_t size) {
  using namespace aimsc;
  const std::size_t kPixels = size * size;

  apps::RunConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.streamLength = 256;

  const apps::CompositingScene scene =
      apps::makeCompositingScene(size, size, cfg.seed);

  std::printf(
      "\nMeasured simulator throughput: %zux%zu compositing, N=%zu\n",
      size, size, cfg.streamLength);

  // Serial baseline: the SAME backend-generic kernel on one ReRAM-SC
  // backend, configured exactly like the tiled lanes (device params
  // included).
  const core::BackendFactoryConfig bc = apps::backendConfigFor(cfg);
  const auto serialBackend = core::makeBackend(core::DesignKind::ReramSc, bc);
  const auto t0 = std::chrono::steady_clock::now();
  const img::Image serialOut = apps::compositeKernel(scene, *serialBackend);
  const double serialSec = secondsSince(t0);
  const double serialPps = static_cast<double>(kPixels) / serialSec;
  std::printf("  serial kernel (1 backend): %8.0f pixels/s (%.2fs)\n",
              serialPps, serialSec);

  apps::ParallelConfig par;  // lanes=8, rowsPerTile=4
  std::vector<SweepPoint> sweep;
  img::Image firstTiled;
  bool bitIdentical = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    par.threads = threads;
    core::TileExecutor exec(
        core::makeBackendLanes(core::DesignKind::ReramSc, bc, par.lanes), par);
    const auto t1 = std::chrono::steady_clock::now();
    const img::Image tiled = apps::runTiled(apps::framesOf(scene), exec);
    const double sec = secondsSince(t1);
    const double pps = static_cast<double>(kPixels) / sec;
    sweep.push_back({threads, pps, pps / serialPps});
    if (firstTiled.empty()) {
      firstTiled = tiled;
    } else if (tiled.pixels() != firstTiled.pixels()) {
      bitIdentical = false;
    }
    std::printf("  tiled engine, %zu thread%s: %8.0f pixels/s (%.2fx serial)\n",
                threads, threads == 1 ? " " : "s", pps, pps / serialPps);
  }
  std::printf("  bit-identical across thread counts: %s\n",
              bitIdentical ? "yes" : "NO (BUG)");

  const SwScResult sw = measuredSwScSweep(size, scene);

  // Machine-readable trajectory for future PRs.
  FILE* f = std::fopen("BENCH_throughput.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"app\": \"compositing\",\n"
                 "  \"width\": %zu,\n"
                 "  \"height\": %zu,\n"
                 "  \"stream_length\": %zu,\n"
                 "  \"lanes\": %zu,\n"
                 "  \"rows_per_tile\": %zu,\n"
                 "  \"serial_pixels_per_sec\": %.1f,\n"
                 "  \"bit_identical_across_threads\": %s,\n"
                 "  \"tiled\": [\n",
                 size, size, cfg.streamLength, par.lanes, par.rowsPerTile,
                 serialPps, bitIdentical ? "true" : "false");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      std::fprintf(f,
                   "    {\"threads\": %zu, \"pixels_per_sec\": %.1f, "
                   "\"speedup_vs_serial\": %.2f}%s\n",
                   sweep[i].threads, sweep[i].pixelsPerSec, sweep[i].speedup,
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"swsc\": {\n"
                 "    \"avx2\": %s,\n"
                 "    \"avx512\": %s,\n"
                 "    \"simd_width\": \"%s\",\n"
                 "    \"scalar_pixels_per_sec\": %.1f,\n"
                 "    \"simd_pixels_per_sec\": %.1f,\n"
                 "    \"simd_speedup_vs_scalar\": %.2f,\n"
                 "    \"simd_tiled4_pixels_per_sec\": %.1f,\n"
                 "    \"simd_bit_identical_to_scalar\": %s,\n",
                 aimsc::sc::cpuHasAvx2() ? "true" : "false",
                 aimsc::sc::cpuHasAvx512bw() ? "true" : "false", sw.simdWidth,
                 sw.scalarPps, sw.simdPps, sw.simdPps / sw.scalarPps,
                 sw.simdTiledPps, sw.bitIdentical ? "true" : "false");
    for (const WidthPoint& p : sw.widths) {
      std::fprintf(f,
                   "    \"width_pixels_per_sec_%s\": %.1f,\n"
                   "    \"width_bit_identical_%s\": %s,\n",
                   aimsc::sc::simdModeName(p.mode), p.pps,
                   aimsc::sc::simdModeName(p.mode),
                   p.bitIdentical ? "true" : "false");
    }
    std::fprintf(f,
                 "    \"sfmt_scalar_pixels_per_sec\": %.1f,\n"
                 "    \"sfmt_simd_pixels_per_sec\": %.1f,\n"
                 "    \"sfmt_simd_speedup_vs_scalar\": %.2f,\n"
                 "    \"sfmt_bit_identical_to_scalar\": %s,\n"
                 "    \"sfmt_bit_identical_to_portable\": %s\n"
                 "  }\n}\n",
                 sw.sfmtScalarPps, sw.sfmtSimdPps,
                 sw.sfmtSimdPps / sw.sfmtScalarPps,
                 sw.sfmtBitIdenticalToScalar ? "true" : "false",
                 sw.sfmtBitIdenticalToPortable ? "true" : "false");
    std::fclose(f);
    std::puts("  wrote BENCH_throughput.json");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aimsc;
  const long sizeArg = argc > 1 ? std::atol(argv[1]) : 256;
  if (sizeArg < 1 || sizeArg > 1 << 14) {
    std::fprintf(stderr, "usage: bench_fig5_throughput [size in 1..16384]\n");
    return 1;
  }
  const auto size = static_cast<std::size_t>(sizeArg);

  std::puts(
      "Fig. 5: normalized throughput vs binary CIM (reference = 1.0)\n");

  const apps::AppKind appList[] = {apps::AppKind::Compositing,
                                   apps::AppKind::Bilinear,
                                   apps::AppKind::Matting};
  const std::size_t lengths[] = {32, 64, 128, 256};

  double avgReram = 0;
  double avgCmos = 0;
  int cells = 0;

  for (const auto app : appList) {
    const energy::AppProfile profile = apps::profileFor(app);
    std::printf("-- %s (binary CIM: %.1f Melem/s) --\n", profile.name.c_str(),
                energy::evaluateSystem(energy::Design::BinaryCim, profile, 256)
                        .throughputElemsPerSec /
                    1e6);
    energy::Table t({"Design", "N=32", "N=64", "N=128", "N=256"});
    for (const auto design :
         {energy::Design::CmosScLfsr, energy::Design::ReramSc}) {
      std::vector<std::string> row{energy::designName(design)};
      for (const std::size_t n : lengths) {
        const double s = energy::throughputImprovement(design, profile, n);
        row.push_back(energy::fmt(s, 2));
        if (design == energy::Design::ReramSc) {
          avgReram += s;
        } else {
          avgCmos += s;
        }
      }
      t.addRow(row);
    }
    std::fputs(t.toString().c_str(), stdout);
    cells += 4;
  }

  avgReram /= cells;
  avgCmos /= cells;
  std::printf(
      "\nAverage throughput vs binary CIM: ReRAM-SC %.2fx, CMOS-SC %.2fx"
      "\n=> ReRAM-SC vs binary CIM: %.2fx (paper: 2.16x); vs CMOS-SC: %.2fx"
      " (paper: 1.39x)\n",
      avgReram, avgCmos, avgReram, avgReram / avgCmos);

  measuredSweep(size);
  return 0;
}
