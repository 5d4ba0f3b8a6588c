// StreamArena unit tests plus the allocation-count regression suite: a
// global operator-new counter proves the fused tiled hot path performs ZERO
// heap allocations per row once the arena and backend scratch are warm, on
// both SW-SC engines and on fault-free and faulty ReRAM; arena-reset
// determinism pins the tile engine's ledger reproducibility.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/runner.hpp"
#include "core/backend_reram.hpp"
#include "core/backend_swsc.hpp"
#include "core/backend_swsc_simd.hpp"
#include "core/stream_arena.hpp"
#include "core/tile_executor.hpp"
#include "img/synth.hpp"

// --- global allocation counter ----------------------------------------------
// Replacing operator new is the strongest available hook: it counts every
// heap allocation in the process, not just the arena's own bookkeeping.

namespace {
std::atomic<std::uint64_t> gAllocCount{0};

/// Every replacement delete below frees through this one out-of-line call.
/// Were `std::free` inlined into a new-expression's cleanup path, GCC would
/// see it applied to what `operator new` returned and warn
/// (-Wmismatched-new-delete), although the replacement new mallocs.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  ++gAllocCount;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++gAllocCount;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++gAllocCount;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace aimsc::core {
namespace {

// --- arena unit tests -------------------------------------------------------

TEST(StreamArena, HandlesAreStableAndResetReusesThem) {
  StreamArena arena;
  ScValue& v0 = arena.value();
  std::vector<ScValue>& b0 = arena.batch(5);
  std::vector<std::uint8_t>& r0 = arena.bytes(7);
  EXPECT_EQ(b0.size(), 5u);
  EXPECT_EQ(r0.size(), 7u);
  // Later acquisitions must not invalidate earlier handles.
  ScValue& v1 = arena.value();
  EXPECT_NE(&v0, &v1);
  std::vector<ScValue>& b1 = arena.batch(3);
  EXPECT_NE(&b0, &b1);
  EXPECT_EQ(b0.size(), 5u);

  const std::uint64_t grown = arena.stats().growthEvents();
  EXPECT_GT(grown, 0u);

  // After reset the SAME objects come back in acquisition order, and the
  // steady state grows nothing.
  arena.reset();
  EXPECT_EQ(&arena.value(), &v0);
  EXPECT_EQ(&arena.batch(5), &b0);
  EXPECT_EQ(&arena.bytes(7), &r0);
  EXPECT_EQ(&arena.value(), &v1);
  EXPECT_EQ(&arena.batch(3), &b1);
  EXPECT_EQ(arena.stats().growthEvents(), grown);
  EXPECT_EQ(arena.stats().resets, 1u);
}

TEST(StreamArena, GrowthCountersTrackPoolGrowthOnly) {
  StreamArena arena;
  arena.batch(4);
  const std::uint64_t after = arena.stats().growthEvents();
  arena.reset();
  arena.batch(4);  // same capacity: no growth
  EXPECT_EQ(arena.stats().growthEvents(), after);
  arena.reset();
  arena.batch(9);  // capacity grows: counted
  EXPECT_GT(arena.stats().growthEvents(), after);
}

// --- zero-allocation regression ---------------------------------------------

/// Runs \p rows steady-state compositing rows through the fused kernel on a
/// warm arena and returns the number of heap allocations they performed.
std::uint64_t steadyStateAllocs(ScBackend& b, StreamArena& arena,
                                const apps::CompositingScene& scene,
                                img::Image& out) {
  // Warm-up tile: rows [0, 2) populate the arena pools, the backend
  // scratch, the constant pools and the IMSNG memo tables.
  apps::compositeKernelRows(scene, b, arena, out, 0, 2);
  arena.reset();  // tile boundary
  const std::uint64_t before = gAllocCount.load();
  apps::compositeKernelRows(scene, b, arena, out, 2, 6);
  return gAllocCount.load() - before;
}

/// Both SW-SC engines at N = 256: engine 0 is the scalar oracle, engine 1
/// the bulk engine the factory builds.
std::vector<std::unique_ptr<ScBackend>> swScEngines() {
  SwScSimdConfig cfg;
  cfg.streamLength = 256;
  std::vector<std::unique_ptr<ScBackend>> engines;
  engines.push_back(std::make_unique<SwScBackend>(cfg));
  engines.push_back(std::make_unique<SwScSimdBackend>(cfg));
  return engines;
}

TEST(AllocationRegression, SwScCompositingRowsAreAllocationFree) {
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 8, 11);
  const auto engines = swScEngines();
  for (std::size_t e = 0; e < engines.size(); ++e) {
    StreamArena arena;
    img::Image out(24, 8);
    EXPECT_EQ(steadyStateAllocs(*engines[e], arena, scene, out), 0u)
        << "engine " << e;
    EXPECT_EQ(arena.stats().resets, 1u);
  }
}

TEST(AllocationRegression, ReramCompositingRowsAreAllocationFree) {
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 8, 13);
  AcceleratorConfig ac;
  ac.streamLength = 256;
  ac.device = reram::DeviceParams::ideal();
  ReramScBackend b(ac);
  StreamArena arena;
  img::Image out(24, 8);
  EXPECT_EQ(steadyStateAllocs(b, arena, scene, out), 0u);
}

TEST(AllocationRegression, FaultyReramCompositingRowsAreAllocationFree) {
  // Table IV device variability: every IMSNG conversion runs the scouting
  // dataflow with misdecision draws, and the MAJ3 blend needs the third
  // pattern mask after two-operand steps.
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 8, 13);
  AcceleratorConfig ac;
  ac.streamLength = 256;
  ac.deviceVariability = true;
  ac.device = apps::defaultFaultyDevice();
  ReramScBackend b(ac);
  StreamArena arena;
  img::Image out(24, 8);
  EXPECT_EQ(steadyStateAllocs(b, arena, scene, out), 0u);
}

TEST(AllocationRegression, ReramGammaAllocationsDoNotGrowWithRows) {
  // Per pixel: four fresh-epoch copies, five coefficient constants, the
  // selection network and the ADC.  The kernel builds one coefficient
  // vector per call, as it does on every substrate; nothing else may
  // allocate, so four warm rows cost what one warm row costs.
  const img::Image src = img::naturalScene(16, 8, 5);
  AcceleratorConfig ac;
  ac.streamLength = 256;
  ReramScBackend b(ac);
  StreamArena arena;
  img::Image out(src.width(), src.height());
  const auto allocs = [&](std::size_t r0, std::size_t r1) {
    arena.reset();
    const std::uint64_t before = gAllocCount.load();
    apps::gammaKernelRows(src, 2.2, b, arena, out, r0, r1);
    return gAllocCount.load() - before;
  };
  allocs(0, 2);  // warm-up
  const std::uint64_t oneRow = allocs(2, 3);
  const std::uint64_t fourRows = allocs(3, 7);
  EXPECT_LE(fourRows, oneRow);
  EXPECT_LE(oneRow, 1u);
}

TEST(AllocationRegression, ReramSmoothingRowsAreAllocationFree) {
  // Seven independent select constants per row besides the data path.
  const img::Image src = img::naturalScene(20, 10, 3);
  AcceleratorConfig ac;
  ac.streamLength = 256;
  ReramScBackend b(ac);
  StreamArena arena;
  img::Image out = src;
  apps::smoothKernelRows(src, b, arena, out, 0, 3);  // warm-up
  arena.reset();
  const std::uint64_t before = gAllocCount.load();
  apps::smoothKernelRows(src, b, arena, out, 3, 8);
  EXPECT_EQ(gAllocCount.load() - before, 0u);
}

TEST(AllocationRegression, SwScSmoothingRowsAreAllocationFree) {
  // Exercises the constant pool (seven pooled halves per row) besides the
  // data path.
  const img::Image src = img::naturalScene(20, 10, 3);
  const auto engines = swScEngines();
  for (std::size_t e = 0; e < engines.size(); ++e) {
    StreamArena arena;
    img::Image out = src;
    apps::smoothKernelRows(src, *engines[e], arena, out, 0, 3);  // warm-up
    arena.reset();
    const std::uint64_t before = gAllocCount.load();
    apps::smoothKernelRows(src, *engines[e], arena, out, 3, 8);
    EXPECT_EQ(gAllocCount.load() - before, 0u) << "engine " << e;
  }
}

// --- arena-reset determinism ------------------------------------------------

TEST(ArenaDeterminism, SameSeedTwoTiledRunsIdenticalPixelsAndLedgers) {
  const apps::CompositingScene scene = apps::makeCompositingScene(20, 14, 7);
  BackendFactoryConfig bc;
  bc.streamLength = 128;
  ParallelConfig par;
  par.threads = 2;
  par.rowsPerTile = 2;

  TileExecutor first(makeBackendLanes(DesignKind::ReramSc, bc, 3), par);
  TileExecutor second(makeBackendLanes(DesignKind::ReramSc, bc, 3), par);
  const img::Image a = apps::runTiled(apps::framesOf(scene), first);
  const img::Image b = apps::runTiled(apps::framesOf(scene), second);
  EXPECT_EQ(a.pixels(), b.pixels());
  EXPECT_EQ(first.totalEvents(), second.totalEvents());
}

TEST(ArenaDeterminism, TileResetMatchesFreshArenaBits) {
  // A lane arena reused (reset) across tiles must produce the same bits as
  // a fresh arena per tile: arena state carries capacity, never values.
  const apps::CompositingScene scene = apps::makeCompositingScene(16, 8, 9);
  SwScConfig cfg;
  cfg.streamLength = 128;

  SwScBackend reusedBackend(cfg);
  StreamArena reused;
  img::Image outReused(16, 8);
  for (std::size_t t = 0; t < 4; ++t) {
    reused.reset();
    apps::compositeKernelRows(scene, reusedBackend, reused, outReused, 2 * t,
                              2 * t + 2);
  }

  SwScBackend freshBackend(cfg);
  img::Image outFresh(16, 8);
  for (std::size_t t = 0; t < 4; ++t) {
    StreamArena fresh;
    apps::compositeKernelRows(scene, freshBackend, fresh, outFresh, 2 * t,
                              2 * t + 2);
  }
  EXPECT_EQ(outReused.pixels(), outFresh.pixels());
}

}  // namespace
}  // namespace aimsc::core
