// Tile-parallel execution engine: thread pool, lane-pinned determinism,
// batched IMSNG equivalence and event-count merging.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/runner.hpp"
#include "core/backend_reram.hpp"
#include "core/thread_pool.hpp"
#include "core/tile_executor.hpp"
#include "img/metrics.hpp"
#include "img/synth.hpp"

namespace aimsc::core {
namespace {

/// A fault-free ReRAM-SC fleet of \p lanes factory-built lanes.
TileExecutor reramFleet(std::size_t lanes, std::size_t threads,
                        std::size_t rowsPerTile = 2, std::size_t n = 256) {
  BackendFactoryConfig bc;
  bc.streamLength = n;
  ParallelConfig par;
  par.threads = threads;
  par.rowsPerTile = rowsPerTile;
  return TileExecutor(makeBackendLanes(DesignKind::ReramSc, bc, lanes), par);
}

AcceleratorConfig idealMat(std::size_t n) {
  AcceleratorConfig cfg;
  cfg.streamLength = n;
  cfg.device = reram::DeviceParams::ideal();
  return cfg;
}

/// Edge detection is a kernel, not an app: it tiles its row form directly.
img::Image edgeTiled(const img::Image& src, TileExecutor& exec) {
  img::Image out(src.width(), src.height(), 0);
  exec.forEachTile(src.height(), [&](ScBackend& lane, StreamArena& arena,
                                     std::size_t r0, std::size_t r1) {
    apps::edgeKernelRows(src, lane, arena, out, r0, r1);
  });
  return out;
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, InlinePoolRunsTasksOnSubmit) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), 0u);
  int calls = 0;
  pool.submit([&] { ++calls; });
  pool.submit([&] { ++calls; });
  pool.wait();
  EXPECT_EQ(calls, 2);
}

TEST(ThreadPool, WorkersDrainAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) tasks.push_back([&] { ++calls; });
  pool.run(std::move(tasks));
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, FirstTaskExceptionIsRethrownOnWait) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.submit([&] { ++calls; });
  pool.submit([] { throw std::runtime_error("boom"); });
  pool.submit([&] { ++calls; });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(calls.load(), 2);  // other tasks still ran
  // The pool is reusable after an error.
  pool.submit([&] { ++calls; });
  pool.wait();
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, InlinePoolPropagatesException) {
  ThreadPool pool(0);
  pool.submit([] { throw std::logic_error("inline"); });
  EXPECT_THROW(pool.wait(), std::logic_error);
}

// --- TileExecutor scheduling ----------------------------------------------

TEST(TileExecutor, CoversEveryRowExactlyOnce) {
  TileExecutor exec = reramFleet(3, 2, 4);
  const std::size_t height = 29;  // not a multiple of rowsPerTile
  std::vector<std::atomic<int>> visits(height);
  exec.forEachTile(height, [&](ScBackend&, StreamArena&, std::size_t r0,
                               std::size_t r1) {
    EXPECT_LT(r0, r1);
    for (std::size_t y = r0; y < r1; ++y) ++visits[y];
  });
  for (std::size_t y = 0; y < height; ++y) EXPECT_EQ(visits[y].load(), 1);
}

TEST(TileExecutor, TilePinningIsThreadCountInvariant) {
  // Record which lane got which tile at two thread counts.
  auto pinning = [](std::size_t threads) {
    TileExecutor exec = reramFleet(4, threads, 2);
    std::vector<int> laneOfRow(32, -1);
    exec.forEachTile(32, [&](ScBackend& lane, StreamArena&, std::size_t r0,
                             std::size_t r1) {
      std::ptrdiff_t idx = -1;
      for (std::size_t i = 0; i < exec.lanes(); ++i) {
        if (&exec.backend(i) == &lane) idx = static_cast<std::ptrdiff_t>(i);
      }
      for (std::size_t y = r0; y < r1; ++y) {
        laneOfRow[y] = static_cast<int>(idx);
      }
    });
    return laneOfRow;
  };
  EXPECT_EQ(pinning(0), pinning(3));
}

TEST(TileExecutor, KernelExceptionPropagates) {
  TileExecutor exec = reramFleet(2, 2);
  EXPECT_THROW(exec.forEachTile(8,
                                [](ScBackend&, StreamArena&, std::size_t,
                                   std::size_t) {
                                  throw std::runtime_error("kernel");
                                }),
               std::runtime_error);
}

TEST(TileExecutor, RejectsBadConfig) {
  EXPECT_THROW(reramFleet(0, 1), std::invalid_argument);
  EXPECT_THROW(reramFleet(2, 1, 0), std::invalid_argument);
}

// --- Determinism across thread counts (the engine's core contract) --------

TEST(TileExecutor, CompositingBitIdenticalAt1And2And8Threads) {
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 24, 7);

  img::Image ref;
  reram::EventCounts refEvents;
  bool first = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    TileExecutor exec = reramFleet(4, threads);
    const img::Image out = apps::runTiled(apps::framesOf(scene), exec);
    const reram::EventCounts events = exec.totalEvents();
    if (first) {
      ref = out;
      refEvents = events;
      first = false;
      EXPECT_GT(events.slReads, 0u);
      EXPECT_GT(events.trngBits, 0u);
    } else {
      EXPECT_EQ(out.pixels(), ref.pixels());
      EXPECT_EQ(events, refEvents);
    }
  }
}

TEST(TileExecutor, TiledCompositingMatchesSerialQualityClass) {
  const apps::CompositingScene scene = apps::makeCompositingScene(20, 20, 5);
  const img::Image ref = apps::compositeReference(scene);

  ReramScBackend serialBackend(idealMat(256));
  const double psnrSerial =
      img::psnrDb(apps::compositeKernel(scene, serialBackend), ref);

  TileExecutor exec = reramFleet(4, 2);
  const double psnrTiled =
      img::psnrDb(apps::runTiled(apps::framesOf(scene), exec), ref);
  EXPECT_NEAR(psnrTiled, psnrSerial, 3.0);
}

TEST(TileExecutor, RunnerTiledAppsLandInQualityClass) {
  apps::RunConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  apps::ParallelConfig par;
  par.lanes = 4;
  par.threads = 2;
  for (const auto app : {apps::AppKind::Compositing, apps::AppKind::Bilinear,
                         apps::AppKind::Matting}) {
    const apps::Quality qSerial =
        apps::runApp(app, apps::DesignKind::ReramSc, cfg);
    const apps::Quality qTiled =
        apps::runApp(app, apps::DesignKind::ReramSc, cfg, par);
    EXPECT_GT(qTiled.psnrDb, 0.0);
    EXPECT_NEAR(qTiled.psnrDb, qSerial.psnrDb, 6.0) << apps::appName(app);
  }
}

// --- Batched IMSNG ---------------------------------------------------------

TEST(TileExecutor, EncodeBatchMatchesSerialCorrelatedEncodes) {
  const AcceleratorConfig cfg = idealMat(256);
  ReramScBackend batched(cfg);
  Accelerator serial(cfg);  // same seed -> same TRNG stream

  const std::vector<std::uint8_t> values{0, 255, 17, 17, 128, 91, 91, 3};
  const auto streams = batched.encodePixels(values);
  ASSERT_EQ(streams.size(), values.size());

  serial.refreshRandomness();
  sc::Bitstream expect;
  for (std::size_t i = 0; i < values.size(); ++i) {
    serial.encodeProbCorrelatedInto(expect, values[i] / 255.0);
    EXPECT_EQ(streams[i].stream, expect) << "value " << int(values[i]);
  }
  // Identical event accounting: batch charges every conversion, including
  // the memoized duplicates.
  EXPECT_EQ(batched.events(), serial.events());
}

TEST(TileExecutor, EncodeBatchMatchesSerialAtOtherSegmentSizes) {
  // M = 6 serves the batch from the per-epoch byte cache, M = 9 runs the
  // scouting dataflow per value; both must match per-value correlated
  // encodes stream for stream and event for event, duplicates and p = 1
  // included, on a width that ends mid-word.
  std::vector<std::uint8_t> values;
  for (int v = 0; v < 256; v += 5) values.push_back(static_cast<std::uint8_t>(v));
  values.push_back(40);
  for (const int m : {6, 9}) {
    AcceleratorConfig cfg = idealMat(200);
    cfg.mBits = m;
    ReramScBackend batched(cfg);
    Accelerator serial(cfg);
    const auto streams = batched.encodePixels(values);

    serial.refreshRandomness();
    sc::Bitstream expect;
    for (std::size_t i = 0; i < values.size(); ++i) {
      serial.encodeProbCorrelatedInto(expect, values[i] / 255.0);
      EXPECT_EQ(streams[i].stream, expect)
          << "M = " << m << ", value " << int(values[i]);
    }
    EXPECT_EQ(batched.events(), serial.events()) << "M = " << m;
  }
}

TEST(TileExecutor, TiledFiltersDeterministicAndInQualityClass) {
  const img::Image src = img::naturalScene(20, 20, 11);

  for (const bool smooth : {true, false}) {
    ReramScBackend serialBackend(idealMat(256));
    const img::Image serial = smooth ? apps::smoothKernel(src, serialBackend)
                                     : apps::edgeKernel(src, serialBackend);
    img::Image ref;
    reram::EventCounts refEvents;
    bool first = true;
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                      std::size_t{8}}) {
      TileExecutor exec = reramFleet(4, threads);
      const img::Image out =
          smooth ? apps::runTiled(
                       apps::framesOf(apps::AppKind::Filters, src), exec)
                 : edgeTiled(src, exec);
      if (first) {
        ref = out;
        refEvents = exec.totalEvents();
        first = false;
        // Same accuracy class as the serial per-pixel kernel.
        EXPECT_GT(img::psnrDb(out, serial), 20.0)
            << (smooth ? "smooth" : "edge");
      } else {
        EXPECT_EQ(out.pixels(), ref.pixels()) << (smooth ? "smooth" : "edge");
        EXPECT_EQ(exec.totalEvents(), refEvents);
      }
    }
  }
}

TEST(TileExecutor, EncodeBatchChargesEveryConversion) {
  ReramScBackend b(idealMat(128));
  const std::vector<std::uint8_t> values(50, 42);  // all duplicates
  b.encodePixels(values);
  // 5*M sensing steps per conversion regardless of memoization.
  EXPECT_EQ(b.events().slReads, 50u * 40u);
  // One plane refresh for the whole epoch: M rows of N TRNG bits.
  EXPECT_EQ(b.events().trngBits, 8u * 128u);
}

TEST(TileExecutor, CorrelatedBatchSharesEpoch) {
  ReramScBackend backend(idealMat(512));
  const std::vector<std::uint8_t> a{100};
  const std::vector<std::uint8_t> b{200};
  const sc::Bitstream sa = backend.encodePixels(a)[0].stream;
  const sc::Bitstream sb = backend.encodePixelsCorrelated(b)[0].stream;
  // Same planes: the smaller threshold's stream is contained in the larger's
  // (maximal correlation), so AND(sa, sb) == sa.
  EXPECT_EQ(sa & sb, sa);
  // A fresh batch breaks the containment with overwhelming probability.
  const sc::Bitstream sc2 = backend.encodePixels(b)[0].stream;
  EXPECT_NE(sc2 & sa, sa);
}

TEST(TileExecutor, EncodeBatchFaultyFidelityFallsBackFaithfully) {
  AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.deviceVariability = true;
  cfg.device = apps::defaultFaultyDevice();
  cfg.faultModelSamples = 20000;
  ReramScBackend b(cfg);
  const std::vector<std::uint8_t> values{10, 10, 250, 250};
  const auto streams = b.encodePixels(values);
  ASSERT_EQ(streams.size(), 4u);
  // Faulty lanes draw fresh misdecisions per conversion: duplicates are NOT
  // memoized (streams may differ), and values remain near the encoded p.
  EXPECT_NEAR(streams[2].stream.value(), 250.0 / 255.0, 0.1);
  EXPECT_EQ(b.events().slReads, 4u * 40u);
}

TEST(TileExecutor, EventMergeEqualsLaneSum) {
  TileExecutor exec = reramFleet(3, 2);
  const apps::CompositingScene scene = apps::makeCompositingScene(12, 12, 9);
  apps::runTiled(apps::framesOf(scene), exec);
  reram::EventCounts sum;
  for (std::size_t i = 0; i < exec.lanes(); ++i) {
    sum += exec.backend(i).events();
  }
  EXPECT_EQ(exec.totalEvents(), sum);
  exec.resetEvents();
  EXPECT_EQ(exec.totalEvents(), reram::EventCounts{});
}

}  // namespace
}  // namespace aimsc::core
