// google-benchmark micro suite: simulator kernel throughput (not a paper
// artifact — useful for keeping the simulator itself fast).
#include <benchmark/benchmark.h>

#include "apps/runner.hpp"
#include "bincim/aritpim.hpp"
#include "core/accelerator.hpp"
#include "core/backend_bincim.hpp"
#include "core/backend_reram.hpp"
#include "img/synth.hpp"
#include "sc/cordiv.hpp"
#include "sc/correlation.hpp"
#include "sc/ops.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"

namespace {

using namespace aimsc;

void BM_BitstreamAnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sc::Mt19937Source src(1);
  const sc::Bitstream a = sc::generateSbsFromProb(src, 0.5, 8, n);
  const sc::Bitstream b = sc::generateSbsFromProb(src, 0.5, 8, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a & b);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitstreamAnd)->Arg(256)->Arg(4096);

void BM_GenerateSbs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sc::Mt19937Source src(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::generateSbsFromProb(src, 0.37, 8, n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GenerateSbs)->Arg(256)->Arg(4096);

void BM_SobolSbs(benchmark::State& state) {
  sc::Sobol src(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::generateSbsFromProb(src, 0.37, 8, 256));
  }
}
BENCHMARK(BM_SobolSbs);

void BM_ImsngConversion(benchmark::State& state) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = static_cast<std::size_t>(state.range(0));
  cfg.device = reram::DeviceParams::ideal();
  core::Accelerator acc(cfg);
  sc::Bitstream s;
  for (auto _ : state) {
    acc.encodeProbInto(s, 0.42);
    benchmark::DoNotOptimize(s.words().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ImsngConversion)->Arg(256)->Arg(1024);

void BM_ImsngConversionFaulty(benchmark::State& state) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.deviceVariability = true;
  cfg.device.sigmaLrs = 0.12;
  cfg.device.sigmaHrs = 1.1;
  cfg.faultModelSamples = 20000;
  core::Accelerator acc(cfg);
  sc::Bitstream s;
  acc.encodeProbInto(s, 0.5);  // warm the fault-table cache
  for (auto _ : state) {
    acc.encodeProbInto(s, 0.42);
    benchmark::DoNotOptimize(s.words().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ImsngConversionFaulty);

// One warm faulty encode row: the compositing kernel's own
// encodePixelsInto call, 64 pixels through the faulty IMSNG dataflow.
// hrs125 picks the device: Table IV (0) or its sigma_HRS x 1.25 corner (1).
// matte picks the row: a natural-scene row (0) or the middle row of the
// 64x64 compositing alpha matte (1), whose zeros and 255s sense no plane.
void BM_ReramEncodeRowFaulty(benchmark::State& state) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.deviceVariability = true;
  cfg.device = apps::defaultFaultyDevice();
  if (state.range(0) != 0) cfg.device.sigmaHrs *= 1.25;
  core::ReramScBackend b(cfg);
  std::vector<std::uint8_t> row = img::naturalScene(64, 1, 5).pixels();
  if (state.range(1) != 0) {
    const img::Image alpha = apps::makeCompositingScene(64, 64, 5).alpha;
    for (std::size_t x = 0; x < row.size(); ++x) row[x] = alpha.at(x, 32);
  }
  std::vector<core::ScValue> values(row.size());
  b.encodePixelsInto(row, values);  // freeze the misdecision table
  for (auto _ : state) {
    b.encodePixelsInto(row, values);
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(row.size()));
}
BENCHMARK(BM_ReramEncodeRowFaulty)
    ->ArgNames({"hrs125", "matte"})
    ->ArgsProduct({{0, 1}, {0, 1}});

void BM_Cordiv(benchmark::State& state) {
  sc::Mt19937Source src(3);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.3, 0.6, 8, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::cordivDivide(x, y));
  }
}
BENCHMARK(BM_Cordiv);

// In-memory CORDIV on a Table IV mat: two AND-pattern draws per stream bit.
void BM_ImOpsDivideFaulty(benchmark::State& state) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.deviceVariability = true;
  cfg.device = apps::defaultFaultyDevice();
  cfg.faultModelSamples = 40000;
  core::Accelerator acc(cfg);
  sc::Bitstream y;
  sc::Bitstream x;
  acc.encodeProbInto(y, 0.6);
  acc.encodeProbCorrelatedInto(x, 0.3);
  sc::Bitstream q;
  acc.ops().divideInto(q, x, y);  // warm the fault table
  for (auto _ : state) {
    acc.ops().divideInto(q, x, y);
    benchmark::DoNotOptimize(q.words().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ImOpsDivideFaulty);

// Fault-free: the closed form plus its gate charge.
void BM_AritPimMul8(benchmark::State& state) {
  bincim::MagicEngine engine;
  bincim::AritPim pim(engine);
  std::uint32_t a = 123;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pim.mul(a, 45, 8));
    a = (a * 7 + 1) & 0xff;
  }
}
BENCHMARK(BM_AritPimMul8);

// Table IV device at the binary-CIM fault scale: clear runs and walks.
void BM_AritPimMul8Faulty(benchmark::State& state) {
  const reram::FaultModel faults(apps::defaultFaultyDevice(), 0xb1f, 40000);
  bincim::MagicEngine engine(&faults, 0xe6, core::kBinaryCimFaultScale);
  bincim::AritPim pim(engine);
  pim.mul(1, 1, 8);  // freeze the misdecision table (Monte-Carlo)
  std::uint32_t a = 123;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pim.mul(a, 45, 8));
    a = (a * 7 + 1) & 0xff;
  }
}
BENCHMARK(BM_AritPimMul8Faulty);

// One warm Table IV compositing row on binary CIM: the kernel's 64
// majMuxInto calls (two 8-bit multiplies, a subtract and two adds each) on
// a faulty engine.
void BM_BinaryCimCompositingRowFaulty(benchmark::State& state) {
  core::BinaryCimConfig cfg;
  cfg.deviceVariability = true;
  cfg.device = apps::defaultFaultyDevice();
  core::BinaryCimBackend b(cfg);
  const std::size_t n = 64;
  std::vector<core::ScValue> fg(n);
  std::vector<core::ScValue> bg(n);
  std::vector<core::ScValue> alpha(n);
  std::vector<core::ScValue> out(n);
  b.encodePixelsInto(img::naturalScene(64, 1, 5).pixels(), fg);
  b.encodePixelsInto(img::naturalScene(64, 1, 6).pixels(), bg);
  b.encodePixelsInto(img::naturalScene(64, 1, 7).pixels(), alpha);
  const auto row = [&] {
    for (std::size_t x = 0; x < n; ++x) {
      b.majMuxInto(out[x], fg[x], bg[x], alpha[x]);
    }
  };
  row();  // freeze the misdecision table (Monte-Carlo)
  for (auto _ : state) {
    row();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BinaryCimCompositingRowFaulty);

void BM_EndToEndPixelMultiply(benchmark::State& state) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.device = reram::DeviceParams::ideal();
  core::Accelerator acc(cfg);
  sc::Bitstream x;
  sc::Bitstream y;
  sc::Bitstream product;
  for (auto _ : state) {
    acc.encodeProbInto(x, 0.4);
    acc.encodeProbInto(y, 0.7);
    acc.ops().multiplyInto(product, x, y);
    benchmark::DoNotOptimize(acc.decodeProb(product));
  }
}
BENCHMARK(BM_EndToEndPixelMultiply);

}  // namespace

BENCHMARK_MAIN();
