// Bulk SW-SC engine suite: the epoch draws reproduce the scalar sources
// bit for bit, the word-level CORDIV equals the serial flip-flop, the bulk
// engine is bit-identical to the scalar SW-SC oracle on all four apps,
// every width on the SSE2/AVX2/AVX-512 ladder agrees with the portable
// fallback, and tiled runs are deterministic across worker-thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "apps/bilinear.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/matting.hpp"
#include "apps/runner.hpp"
#include "core/backend.hpp"
#include "core/backend_swsc.hpp"
#include "core/backend_swsc_simd.hpp"
#include "core/tile_executor.hpp"
#include "img/synth.hpp"
#include "sc/bulk_sng.hpp"
#include "sc/cordiv.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"

namespace aimsc {
namespace {

using core::DesignKind;
using core::ScBackend;
using core::SwScConfig;
using core::SwScSimdBackend;
using core::SwScSimdConfig;

// --- LFSR epoch draws -------------------------------------------------------

TEST(PaperLfsrDraws, EverySeedMatchesScalarLfsr) {
  // Every nonzero seed, at lengths short of, at, just past and well past
  // the 255-step period.
  for (const std::size_t n : {std::size_t{1}, std::size_t{255},
                              std::size_t{256}, std::size_t{600}}) {
    std::vector<std::uint8_t> draws(n);
    for (std::uint32_t seed = 1; seed <= 255; ++seed) {
      sc::paperLfsrDraws(static_cast<std::uint8_t>(seed), n, draws.data());
      sc::Lfsr scalar = sc::Lfsr::paper8Bit(seed);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(draws[i], scalar.next(8))
            << "seed " << seed << " n " << n << " draw " << i;
      }
    }
  }
  std::uint8_t out = 0;
  EXPECT_THROW(sc::paperLfsrDraws(0, 1, &out), std::invalid_argument);
}

// --- packed comparator ------------------------------------------------------

TEST(RandomPlanes, EncodeMatchesGenerateSbsForAllThresholds) {
  // Odd length exercises the partial-word tail.
  const std::size_t n = 200;
  sc::Lfsr src = sc::Lfsr::paper8Bit(77);
  std::vector<std::uint8_t> r(n);
  for (auto& b : r) b = static_cast<std::uint8_t>(src.next(8));
  sc::RandomPlanes planes;
  planes.assign(r.data(), n);

  for (std::uint32_t x = 0; x <= 256; ++x) {
    src.reset();
    const sc::Bitstream ref = sc::generateSbs(src, x, 8, n);
    sc::Bitstream got;
    planes.encode(x, got, sc::SimdMode::Portable);
    ASSERT_EQ(got, ref) << "threshold " << x;
  }
}

TEST(RandomPlanes, EveryWidthBitIdenticalToPortable) {
  // The full ladder: explicit requests clamp down on weak hosts, so every
  // level is safe to run everywhere — on this host it may alias a narrower
  // path, in which case the assertion is trivially (still correctly) true.
  std::mt19937 rng(123);
  for (const std::size_t n : {std::size_t{64}, std::size_t{100},
                              std::size_t{256}, std::size_t{1000}}) {
    std::vector<std::uint8_t> r(n);
    for (auto& b : r) b = static_cast<std::uint8_t>(rng());
    sc::RandomPlanes planes;
    planes.assign(r.data(), n);
    for (const sc::SimdMode mode :
         {sc::SimdMode::Auto, sc::SimdMode::Sse2, sc::SimdMode::Avx2,
          sc::SimdMode::Avx512}) {
      for (std::uint32_t x = 0; x <= 256; ++x) {
        sc::Bitstream fast;
        sc::Bitstream slow;
        planes.encode(x, fast, mode);
        planes.encode(x, slow, sc::SimdMode::Portable);
        ASSERT_EQ(fast, slow) << "n=" << n << " mode "
                              << sc::simdModeName(mode) << " threshold " << x;
      }
    }
  }
}

TEST(RandomPlanes, PortableAssignBuildsPlanesEagerly) {
  // Regression for the mutable lazy-cache hazard: a portable-mode assign
  // must materialize the bit-planes up front, so a later encode (possibly
  // from another thread adopting the arena) never writes shared state.
  std::vector<std::uint8_t> r(100, 42);
  sc::RandomPlanes planes;
  planes.assign(r.data(), r.size(), sc::SimdMode::Portable);
  EXPECT_TRUE(planes.planesReady());

  // Auto mirrors the resolved width: planes are pre-built exactly when the
  // host (or AIMSC_SIMD) resolves Auto to the portable path.
  sc::RandomPlanes autoPlanes;
  autoPlanes.assign(r.data(), r.size(), sc::SimdMode::Auto);
  EXPECT_EQ(autoPlanes.planesReady(),
            sc::resolveSimd(sc::SimdMode::Auto) == sc::SimdMode::Portable);

  // The eager build is the one the portable encode uses.
  sc::Bitstream eager;
  planes.encode(7, eager, sc::SimdMode::Portable);
  sc::Bitstream lazy;
  autoPlanes.encode(7, lazy, sc::SimdMode::Portable);
  EXPECT_EQ(eager, lazy);
}

TEST(SimdCaps, ResolveClampsDownAndAutoIsConcrete) {
  const sc::SimdMode best = sc::detectBestSimd();
  EXPECT_NE(sc::resolveSimd(sc::SimdMode::Auto), sc::SimdMode::Auto);
  EXPECT_EQ(sc::resolveSimd(sc::SimdMode::Portable), sc::SimdMode::Portable);
  // An explicit request never resolves above host support.
  if (best != sc::SimdMode::Avx512) {
    EXPECT_NE(sc::resolveSimd(sc::SimdMode::Avx512), sc::SimdMode::Avx512);
  } else {
    EXPECT_EQ(sc::resolveSimd(sc::SimdMode::Avx512), sc::SimdMode::Avx512);
  }
  EXPECT_THROW(sc::parseSimdMode("avx1024"), std::invalid_argument);
  EXPECT_EQ(sc::parseSimdMode("avx512"), sc::SimdMode::Avx512);
  EXPECT_STREQ(sc::simdModeName(sc::SimdMode::Sse2), "sse2");
}

// --- word-level CORDIV ------------------------------------------------------

TEST(CordivWordLevel, MatchesSerialFlipFlop) {
  std::mt19937 rng(99);
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{130},
                              std::size_t{256}}) {
    for (int trial = 0; trial < 40; ++trial) {
      sc::Bitstream x(n);
      sc::Bitstream y(n);
      for (std::size_t i = 0; i < n; ++i) {
        const bool yi = (rng() & 3u) != 0;  // mostly-1 divisor + zero runs
        y.set(i, yi);
        x.set(i, yi && (rng() & 1u));
      }
      ASSERT_EQ(sc::cordivDivideWordLevel(x, y), sc::cordivDivide(x, y))
          << "n=" << n << " trial " << trial;
    }
  }
}

// --- SwScSimd vs scalar SW-SC: bit-identical apps ---------------------------

std::unique_ptr<ScBackend> scalarBackend(core::SwScSng sng,
                                         std::uint64_t seed, std::size_t n) {
  SwScConfig cfg;
  cfg.streamLength = n;
  cfg.sng = sng;
  cfg.seed = seed;
  return std::make_unique<core::SwScBackend>(cfg);
}

std::unique_ptr<ScBackend> simdBackend(core::SwScSng sng, std::uint64_t seed,
                                       std::size_t n,
                                       sc::SimdMode mode = sc::SimdMode::Auto) {
  SwScSimdConfig cfg;
  cfg.streamLength = n;
  cfg.sng = sng;
  cfg.seed = seed;
  cfg.simd = mode;
  return std::make_unique<SwScSimdBackend>(cfg);
}

class SimdScalarEquivalence
    : public ::testing::TestWithParam<core::SwScSng> {};

TEST_P(SimdScalarEquivalence, AllFourAppsBitIdenticalAt64) {
  const auto sng = GetParam();
  const std::uint64_t seed = 0x5eed;
  const std::size_t n = 256;

  const apps::CompositingScene scene = apps::makeCompositingScene(64, 64, 21);
  EXPECT_EQ(apps::compositeKernel(scene, *simdBackend(sng, seed, n)).pixels(),
            apps::compositeKernel(scene, *scalarBackend(sng, seed, n)).pixels());

  const img::Image src = img::naturalScene(32, 32, 4);
  EXPECT_EQ(apps::upscaleKernel(src, 2, *simdBackend(sng, seed, n)).pixels(),
            apps::upscaleKernel(src, 2, *scalarBackend(sng, seed, n)).pixels());

  const apps::MattingScene mat = apps::makeMattingScene(64, 64, 8);
  EXPECT_EQ(apps::mattingKernel(mat, *simdBackend(sng, seed, n)).pixels(),
            apps::mattingKernel(mat, *scalarBackend(sng, seed, n)).pixels());

  EXPECT_EQ(apps::smoothKernel(src, *simdBackend(sng, seed, n)).pixels(),
            apps::smoothKernel(src, *scalarBackend(sng, seed, n)).pixels());
}

INSTANTIATE_TEST_SUITE_P(AllSngFamilies, SimdScalarEquivalence,
                         ::testing::Values(core::SwScSng::Lfsr,
                                           core::SwScSng::Sobol,
                                           core::SwScSng::Sfmt),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::SwScSng::Lfsr: return "Lfsr";
                             case core::SwScSng::Sobol: return "Sobol";
                             case core::SwScSng::Sfmt: return "Sfmt";
                           }
                           return "?";
                         });

TEST(SwScSimdBackend, PortableFallbackBitIdenticalOnAnApp) {
  const apps::CompositingScene scene = apps::makeCompositingScene(32, 32, 3);
  const auto fast = apps::compositeKernel(
      scene, *simdBackend(core::SwScSng::Lfsr, 11, 256, sc::SimdMode::Auto));
  const auto slow = apps::compositeKernel(
      scene,
      *simdBackend(core::SwScSng::Lfsr, 11, 256, sc::SimdMode::Portable));
  EXPECT_EQ(fast.pixels(), slow.pixels());
}

TEST(SwScSimdBackend, EpochPrefetchSurvivesManyEpochs) {
  // Enough fresh LFSR epochs to reach every seed the epoch derivation
  // yields, each drawing past the 255-step period, so every start position
  // on the cycle and the wrap are held to the scalar oracle.
  const std::size_t n = 300;
  const auto simd = simdBackend(core::SwScSng::Lfsr, 5, n);
  const auto scalar = scalarBackend(core::SwScSng::Lfsr, 5, n);
  std::set<std::uint32_t> seeds;
  for (int e = 0; e < 400; ++e) {
    // The constructors opened epoch 1; this encode opens epoch e + 2.
    seeds.insert(core::swScLfsrSeedForEpoch(5, e + 2));
    const std::vector<std::uint8_t> v{static_cast<std::uint8_t>(e * 3)};
    auto a = simd->encodePixels(v);
    auto b = scalar->encodePixels(v);
    ASSERT_EQ(a[0].stream, b[0].stream) << "epoch " << e;
  }
  EXPECT_EQ(seeds.size(), 254u);
}

TEST(SwScSimdBackend, SfmtEpochNumberingStaysInSyncAcrossBlocks) {
  // SFMT epoch-numbering conformance: > BulkSfmt::kLanes fresh epochs per
  // width forces multiple prefetch-block refills, and every epoch's stream
  // must equal the scalar SFMT backend's — for each width on the ladder.
  const std::size_t n = 96;
  for (const sc::SimdMode mode :
       {sc::SimdMode::Auto, sc::SimdMode::Portable, sc::SimdMode::Sse2,
        sc::SimdMode::Avx2, sc::SimdMode::Avx512}) {
    const auto simd = simdBackend(core::SwScSng::Sfmt, 5, n, mode);
    const auto scalar = scalarBackend(core::SwScSng::Sfmt, 5, n);
    for (int e = 0; e < 40; ++e) {
      const std::vector<std::uint8_t> v{static_cast<std::uint8_t>(e * 7)};
      auto a = simd->encodePixels(v);
      auto b = scalar->encodePixels(v);
      ASSERT_EQ(a[0].stream, b[0].stream)
          << "mode " << sc::simdModeName(mode) << " epoch " << e;
    }
  }
}

TEST(SwScSimdBackend, EveryWidthBitIdenticalOnAnApp) {
  // Width sweep at the app level: each explicit rung (clamped down on weak
  // hosts) reproduces the portable run bit for bit.
  const apps::CompositingScene scene = apps::makeCompositingScene(32, 32, 9);
  const auto base = apps::compositeKernel(
      scene,
      *simdBackend(core::SwScSng::Lfsr, 13, 256, sc::SimdMode::Portable));
  for (const sc::SimdMode mode :
       {sc::SimdMode::Sse2, sc::SimdMode::Avx2, sc::SimdMode::Avx512}) {
    const auto got = apps::compositeKernel(
        scene, *simdBackend(core::SwScSng::Lfsr, 13, 256, mode));
    EXPECT_EQ(got.pixels(), base.pixels())
        << "mode " << sc::simdModeName(mode);
  }
}

TEST(SwScSimdBackend, OpCountMatchesScalar) {
  const apps::CompositingScene scene = apps::makeCompositingScene(16, 16, 2);
  const auto simd = simdBackend(core::SwScSng::Lfsr, 7, 128);
  const auto scalar = scalarBackend(core::SwScSng::Lfsr, 7, 128);
  apps::compositeKernel(scene, *simd);
  apps::compositeKernel(scene, *scalar);
  EXPECT_GT(simd->opCount(), 0u);
  EXPECT_EQ(simd->opCount(), scalar->opCount());
}

// --- constants / epoch-numbering fix ----------------------------------------

TEST(SwScConstants, HalfStreamDoesNotDesynchronizeEpochs) {
  // Constants between a fresh encode and its correlated follow-up must not
  // advance the epoch: the pair stays maximally correlated and XOR still
  // measures the exact difference.
  for (const auto sng :
       {core::SwScSng::Lfsr, core::SwScSng::Sobol, core::SwScSng::Sfmt}) {
    const auto b = scalarBackend(sng, 0x44, 2048);
    const auto x = b->encodePixels(std::vector<std::uint8_t>{204});
    (void)b->halfStream();
    (void)b->encodeProb(0.25);
    const auto y = b->encodePixelsCorrelated(std::vector<std::uint8_t>{51});
    const auto d = b->decodePixel(b->absSub(x[0], y[0]));
    EXPECT_NEAR(d / 255.0, (204.0 - 51.0) / 255.0, 0.02);
  }
}

TEST(SwScConstants, RepeatedHalvesAreIndependentWithinAnEpoch) {
  // The smoothing kernel draws seven halves per row; they must be mutually
  // independent (a shared select stream would collapse the MUX tree).
  const auto b = scalarBackend(core::SwScSng::Lfsr, 0x7a, 2048);
  const auto h1 = b->halfStream();
  const auto h2 = b->halfStream();
  EXPECT_NE(h1.stream, h2.stream);
  const auto prod = b->decodePixel(b->multiply(h1, h2));
  EXPECT_NEAR(prod / 255.0, 0.25, 0.06);  // p^2, not p
}

TEST(SwScConstants, PoolRewindsAcrossEpochsAndMatchesSimd) {
  const auto scalar = scalarBackend(core::SwScSng::Lfsr, 0x31, 512);
  const auto simd = simdBackend(core::SwScSng::Lfsr, 0x31, 512);
  const auto a1 = scalar->halfStream();
  (void)scalar->encodePixels(std::vector<std::uint8_t>{9});  // new epoch
  const auto a2 = scalar->halfStream();
  EXPECT_EQ(a1.stream, a2.stream);  // same pooled bank, rewound

  const auto s1 = simd->halfStream();
  EXPECT_EQ(s1.stream, a1.stream);  // shared derivation across backends
}

// --- factory / runner plumbing ----------------------------------------------

TEST(SwScSimdBackend, MakeBackendCoverage) {
  core::BackendFactoryConfig cfg;
  cfg.streamLength = 128;
  cfg.seed = 0xabc;
  const auto b = core::makeBackend(DesignKind::SwScSimd, cfg);
  ASSERT_NE(b, nullptr);
  // SwScSimd is an alias of SwScLfsr: its backend reports the design.
  EXPECT_STREQ(b->name(), core::designKindName(DesignKind::SwScLfsr));
  EXPECT_STREQ(b->name(), "SW-SC (LFSR)");
  EXPECT_EQ(core::parseDesignKind("SW-SC (SIMD)"), DesignKind::SwScSimd);

  // The factory's backend matches a hand-built scalar LFSR oracle.
  const auto scalar = scalarBackend(core::SwScSng::Lfsr, cfg.seed, 128);
  auto a = b->encodePixels(std::vector<std::uint8_t>{10, 100, 250});
  auto s = scalar->encodePixels(std::vector<std::uint8_t>{10, 100, 250});
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream, s[i].stream);
  }
}

TEST(SwScSfmtBackend, MakeBackendCoverage) {
  core::BackendFactoryConfig cfg;
  cfg.streamLength = 128;
  cfg.seed = 0xabc;
  const auto b = core::makeBackend(DesignKind::SwScSfmt, cfg);
  ASSERT_NE(b, nullptr);
  EXPECT_STREQ(b->name(), core::designKindName(DesignKind::SwScSfmt));
  EXPECT_STREQ(b->name(), "SW-SC (SFMT)");
  EXPECT_EQ(core::parseDesignKind("SW-SC (SFMT)"), DesignKind::SwScSfmt);
  EXPECT_EQ(core::parseDesignKind("swsc-sfmt"), DesignKind::SwScSfmt);

  // The factory design point matches a hand-built scalar SFMT backend.
  const auto scalar = scalarBackend(core::SwScSng::Sfmt, cfg.seed, 128);
  auto a = b->encodePixels(std::vector<std::uint8_t>{10, 100, 250});
  auto s = scalar->encodePixels(std::vector<std::uint8_t>{10, 100, 250});
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream, s[i].stream);
  }
}

TEST(SwScSimdBackend, RunAppTiledDeterministicAcrossThreadCounts) {
  apps::RunConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.streamLength = 128;
  for (const apps::AppKind app :
       {apps::AppKind::Compositing, apps::AppKind::Matting}) {
    apps::Quality first{};
    bool have = false;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      apps::ParallelConfig par;
      par.lanes = 4;
      par.threads = threads;
      par.rowsPerTile = 2;
      const apps::Quality q =
          apps::runApp(app, DesignKind::SwScSimd, cfg, par);
      if (!have) {
        first = q;
        have = true;
      } else {
        EXPECT_EQ(q.psnrDb, first.psnrDb) << apps::appName(app) << " threads=" << threads;
        EXPECT_EQ(q.ssimPct, first.ssimPct) << apps::appName(app) << " threads=" << threads;
      }
    }
  }
}

TEST(SwScSimdBackend, TiledLaneFleetBitIdenticalToScalarFleet) {
  // The same lane fleet built from scalar oracles, seeded as
  // makeBackendLanes seeds its lanes, must reproduce the factory's fleet
  // bit for bit — parallelism and SIMD are orthogonal axes.
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 24, 17);
  core::BackendFactoryConfig cfg;
  cfg.streamLength = 128;
  cfg.seed = 0x5eed;
  core::ParallelConfig par;
  par.threads = 2;
  par.rowsPerTile = 3;
  std::vector<std::unique_ptr<ScBackend>> scalarLanes;
  for (std::uint64_t i = 0; i < 3; ++i) {
    scalarLanes.push_back(scalarBackend(
        core::SwScSng::Lfsr, cfg.seed + 0x9e3779b97f4a7c15ull * (i + 1),
        cfg.streamLength));
  }
  core::TileExecutor simdExec(
      core::makeBackendLanes(DesignKind::SwScSimd, cfg, 3), par);
  core::TileExecutor scalarExec(std::move(scalarLanes), par);
  EXPECT_EQ(apps::runTiled(apps::framesOf(scene), simdExec).pixels(),
            apps::runTiled(apps::framesOf(scene), scalarExec).pixels());
}

}  // namespace
}  // namespace aimsc
