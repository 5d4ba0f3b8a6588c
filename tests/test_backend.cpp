// ScBackend conformance suite (every backend must pass) plus bit-identity
// regression tests: the backend-generic kernels against verbatim copies of
// the pre-redesign per-app implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sc/bernstein.hpp"
#include "sc/rng.hpp"
#include "sc/sfmt.hpp"
#include "sc/sng.hpp"

#include "apps/bilinear.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/matting.hpp"
#include "apps/runner.hpp"
#include "core/backend.hpp"
#include "core/backend_bincim.hpp"
#include "core/backend_reference.hpp"
#include "core/backend_reram.hpp"
#include "core/backend_swsc.hpp"
#include "core/tile_executor.hpp"
#include "img/image.hpp"
#include "img/synth.hpp"

namespace aimsc::core {
namespace {

// --- conformance suite -----------------------------------------------------
//
// Exercises the full stage-1/2/3 contract with per-substrate tolerances
// (exact substrates decode near-exactly; stochastic substrates within the
// SC noise floor at N = 2048).

struct BackendCase {
  DesignKind design;
  double tol;     ///< value-domain tolerance for op results
  double divTol;  ///< CORDIV tolerance (LFSR autocorrelation starves the
                  ///< divider flip-flop — Table I/II's case for Sobol/TRNG)
};

class BackendConformance : public ::testing::TestWithParam<BackendCase> {
 protected:
  std::unique_ptr<ScBackend> make() const {
    BackendFactoryConfig cfg;
    cfg.streamLength = 2048;
    cfg.seed = 0x1234;
    return makeBackend(GetParam().design, cfg);
  }
  double tol() const { return GetParam().tol; }

  static double decoded(ScBackend& b, const ScValue& v) {
    return b.decodePixel(v) / 255.0;
  }
};

TEST_P(BackendConformance, EncodeDecodeRoundtrip) {
  const auto b = make();
  const std::vector<std::uint8_t> values{0, 32, 128, 200, 255};
  auto encoded = b->encodePixels(values);
  ASSERT_EQ(encoded.size(), values.size());
  const auto decoded = b->decodePixels(encoded);
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(decoded[i] / 255.0, values[i] / 255.0, tol()) << b->name();
  }
}

TEST_P(BackendConformance, CorrelatedAbsSubIsExactDifference) {
  const auto b = make();
  const auto x = b->encodePixels(std::vector<std::uint8_t>{204});
  const auto y = b->encodePixelsCorrelated(std::vector<std::uint8_t>{51});
  const double d = decoded(*b, b->absSub(x[0], y[0]));
  EXPECT_NEAR(d, (204.0 - 51.0) / 255.0, tol()) << b->name();
}

TEST_P(BackendConformance, MultiplyIndependentInputs) {
  const auto b = make();
  const ScValue x = b->encodePixel(128);
  const ScValue y = b->encodePixel(128);
  EXPECT_NEAR(decoded(*b, b->multiply(x, y)), 0.25, tol()) << b->name();
}

TEST_P(BackendConformance, ScaledAddIsMean) {
  const auto b = make();
  const ScValue x = b->encodePixel(64);
  const ScValue y = b->encodePixel(191);
  const ScValue half = b->halfStream();
  EXPECT_NEAR(decoded(*b, b->scaledAdd(x, y, half)),
              (64.0 + 191.0) / (2.0 * 255.0), tol())
      << b->name();
}

TEST_P(BackendConformance, MajMuxEndpointsAndMidpoint) {
  const auto b = make();
  // Data pair correlated, exactly as the compositing kernel uses it.
  const auto x = b->encodePixels(std::vector<std::uint8_t>{200});
  const auto y = b->encodePixelsCorrelated(std::vector<std::uint8_t>{60});
  EXPECT_NEAR(decoded(*b, b->majMux(x[0], y[0], b->encodePixel(255))),
              200.0 / 255.0, tol())
      << b->name();
  EXPECT_NEAR(decoded(*b, b->majMux(x[0], y[0], b->encodePixel(0))),
              60.0 / 255.0, tol())
      << b->name();
  EXPECT_NEAR(decoded(*b, b->majMux(x[0], y[0], b->encodePixel(128))),
              0.5 * (200.0 + 60.0) / 255.0, tol() + 0.02)
      << b->name();
}

TEST_P(BackendConformance, MajMux4CenterBlendsEvenly) {
  const auto b = make();
  const auto d =
      b->encodePixels(std::vector<std::uint8_t>{40, 80, 160, 240});
  const ScValue sx = b->encodePixel(128);
  const ScValue sy = b->encodePixel(128);
  const double out =
      decoded(*b, b->majMux4(d[0], d[1], d[2], d[3], sx, sy));
  EXPECT_NEAR(out, (40.0 + 80.0 + 160.0 + 240.0) / (4.0 * 255.0),
              tol() + 0.02)
      << b->name();
}

TEST_P(BackendConformance, DivideCorrelatedPair) {
  const auto b = make();
  const auto num = b->encodePixels(std::vector<std::uint8_t>{64});
  const auto den = b->encodePixelsCorrelated(std::vector<std::uint8_t>{128});
  ScValue q = b->divide(num[0], den[0]);
  const auto stored = b->decodePixelsStored(std::span<ScValue>(&q, 1));
  EXPECT_NEAR(stored[0] / 255.0, 0.5, GetParam().divTol) << b->name();
}

TEST_P(BackendConformance, AddApproxIsOrOfIndependentInputs) {
  const auto b = make();
  // Inputs in [0, 0.5] (the op's accuracy domain); expected value is the
  // exact OR probability px + py - px*py the reference computes.
  const ScValue x = b->encodePixel(64);
  const ScValue y = b->encodePixel(102);
  const double px = 64.0 / 255.0;
  const double py = 102.0 / 255.0;
  EXPECT_NEAR(decoded(*b, b->addApprox(x, y)), px + py - px * py, tol())
      << b->name();
}

TEST_P(BackendConformance, MinimumMaximumOnCorrelatedPair) {
  const auto b = make();
  const auto x = b->encodePixels(std::vector<std::uint8_t>{204});
  const auto y = b->encodePixelsCorrelated(std::vector<std::uint8_t>{51});
  EXPECT_NEAR(decoded(*b, b->minimum(x[0], y[0])), 51.0 / 255.0, tol())
      << b->name();
  EXPECT_NEAR(decoded(*b, b->maximum(x[0], y[0])), 204.0 / 255.0, tol())
      << b->name();
}

TEST_P(BackendConformance, BernsteinSelectTracksPolynomial) {
  const auto b = make();
  // f(t) = t^2 as its degree-3 Bernstein form: b_k = (k/3)^2.
  const std::vector<double> coeffValues{0.0, 1.0 / 9.0, 4.0 / 9.0, 1.0};
  const auto xCopies = b->encodeCopies(128, 3);
  ASSERT_EQ(xCopies.size(), 3u);
  std::vector<ScValue> coeffs;
  for (const double bk : coeffValues) coeffs.push_back(b->encodeProb(bk));
  const double out = decoded(*b, b->bernsteinSelect(xCopies, coeffs));
  // The DEGREE-3 Bernstein form of t^2 (not t^2 itself):
  // B_3(t^2)(x) = x^2 + x(1-x)/3.
  const double x = 128.0 / 255.0;
  const double expected = sc::bernsteinValue(coeffValues, x);
  EXPECT_NEAR(expected, x * x + x * (1.0 - x) / 3.0, 1e-12);
  EXPECT_NEAR(out, expected, tol() + 0.02) << b->name();
  // Mismatched coefficient count is a contract violation everywhere.
  std::vector<ScValue> tooFew;
  tooFew.push_back(b->encodeProb(0.5));
  EXPECT_THROW(b->bernsteinSelect(xCopies, tooFew), std::invalid_argument)
      << b->name();
}

TEST_P(BackendConformance, EncodeCopiesAreMutuallyIndependent) {
  const auto b = make();
  // Two copies of the same value multiply like independent streams (p^2).
  const auto copies = b->encodeCopies(128, 2);
  ASSERT_EQ(copies.size(), 2u);
  const double prod = decoded(*b, b->multiply(copies[0], copies[1]));
  EXPECT_LT(prod, 0.35) << b->name();  // correlated AND would give ~0.5
}

TEST_P(BackendConformance, FreshEpochsAreIndependent) {
  const auto b = make();
  // Two fresh encodes of the same value multiply like independent streams
  // (p^2), not like correlated ones (p).
  const ScValue x = b->encodePixel(128);
  const ScValue y = b->encodePixel(128);
  const double prod = decoded(*b, b->multiply(x, y));
  EXPECT_LT(prod, 0.35) << b->name();  // correlated AND would give ~0.5
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::Values(BackendCase{DesignKind::Reference, 0.01, 0.03},
                      BackendCase{DesignKind::BinaryCim, 0.01, 0.03},
                      BackendCase{DesignKind::ReramSc, 0.05, 0.07},
                      BackendCase{DesignKind::SwScSobol, 0.05, 0.07},
                      BackendCase{DesignKind::SwScLfsr, 0.08, 0.30},
                      BackendCase{DesignKind::SwScSfmt, 0.08, 0.30},
                      BackendCase{DesignKind::SwScSimd, 0.08, 0.30}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      switch (info.param.design) {
        case DesignKind::Reference: return "Reference";
        case DesignKind::SwScLfsr: return "SwScLfsr";
        case DesignKind::SwScSobol: return "SwScSobol";
        case DesignKind::SwScSfmt: return "SwScSfmt";
        case DesignKind::SwScSimd: return "SwScSimd";
        case DesignKind::ReramSc: return "ReramSc";
        case DesignKind::BinaryCim: return "BinaryCim";
      }
      return "Unknown";
    });

TEST(BackendFactory, NamesAndKinds) {
  BackendFactoryConfig cfg;
  cfg.streamLength = 64;
  for (const DesignKind d :
       {DesignKind::Reference, DesignKind::SwScLfsr, DesignKind::SwScSobol,
        DesignKind::SwScSfmt, DesignKind::SwScSimd, DesignKind::ReramSc,
        DesignKind::BinaryCim}) {
    const auto b = makeBackend(d, cfg);
    ASSERT_NE(b, nullptr);
    EXPECT_STREQ(b->name(), designKindName(d));
  }
}

// --- bit-identity vs the pre-redesign implementations ----------------------
//
// The loops below are verbatim copies of the former hand-written per-app
// functions; they are the regression oracle proving the backend-generic
// kernels reproduce them bit for bit (ReRAM-SC at thread counts 0 and 4,
// fault-free and faulty).

TileExecutorConfig tileCfg(std::size_t threads, bool faults = false) {
  TileExecutorConfig cfg;
  cfg.lanes = 4;
  cfg.threads = threads;
  cfg.rowsPerTile = 2;
  cfg.mat.streamLength = 256;
  if (faults) {
    cfg.mat.deviceVariability = true;
    cfg.mat.device = apps::defaultFaultyDevice();
    cfg.mat.faultModelSamples = 20000;
  } else {
    cfg.mat.device = reram::DeviceParams::ideal();
  }
  return cfg;
}

img::Image seedCompositeReramScTiled(const apps::CompositingScene& scene,
                                     TileExecutor& exec) {
  const std::size_t w = scene.background.width();
  img::Image out(w, scene.background.height());
  exec.forEachTile(out.height(), [&](Accelerator& acc, std::size_t r0,
                                     std::size_t r1) {
    std::vector<std::uint8_t> frow(w);
    std::vector<std::uint8_t> brow(w);
    std::vector<std::uint8_t> arow(w);
    for (std::size_t y = r0; y < r1; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        frow[x] = scene.foreground.at(x, y);
        brow[x] = scene.background.at(x, y);
        arow[x] = scene.alpha.at(x, y);
      }
      const auto fs = acc.encodePixels(frow);
      const auto bs = acc.encodePixelsCorrelated(brow);
      const auto as = acc.encodePixels(arow);
      for (std::size_t x = 0; x < w; ++x) {
        out.at(x, y) = acc.decodePixel(acc.ops().majMux(fs[x], bs[x], as[x]));
      }
    }
  });
  return out;
}

img::Image seedMattingReramScTiled(const apps::MattingScene& scene,
                                   TileExecutor& exec) {
  const std::size_t w = scene.composite.width();
  img::Image out(w, scene.composite.height());
  exec.forEachTile(out.height(), [&](Accelerator& acc, std::size_t r0,
                                     std::size_t r1) {
    std::vector<std::uint8_t> irow(w);
    std::vector<std::uint8_t> brow(w);
    std::vector<std::uint8_t> frow(w);
    for (std::size_t y = r0; y < r1; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        irow[x] = scene.composite.at(x, y);
        brow[x] = scene.background.at(x, y);
        frow[x] = scene.foreground.at(x, y);
      }
      const auto is = acc.encodePixels(irow);
      const auto bs = acc.encodePixelsCorrelated(brow);
      const auto fs = acc.encodePixelsCorrelated(frow);
      for (std::size_t x = 0; x < w; ++x) {
        const sc::Bitstream num = acc.ops().absSub(is[x], bs[x]);
        const sc::Bitstream den = acc.ops().absSub(fs[x], bs[x]);
        out.at(x, y) = acc.decodePixelStored(acc.ops().divide(num, den));
      }
    }
  });
  return out;
}

img::Image seedUpscaleReramScTiled(const img::Image& src, std::size_t factor,
                                   TileExecutor& exec) {
  const std::size_t W = src.width() * factor;
  const std::size_t H = src.height() * factor;
  img::Image out(W, H);
  exec.forEachTile(H, [&](Accelerator& acc, std::size_t r0, std::size_t r1) {
    std::vector<std::uint8_t> data(4 * W);
    std::vector<std::uint8_t> dxRow(W);
    for (std::size_t Y = r0; Y < r1; ++Y) {
      const apps::SampleCoord cy = apps::mapCoord(Y, H, src.height());
      for (std::size_t X = 0; X < W; ++X) {
        const apps::SampleCoord cx = apps::mapCoord(X, W, src.width());
        data[X] = src.at(cx.i0, cy.i0);
        data[W + X] = src.at(cx.i0, cy.i1);
        data[2 * W + X] = src.at(cx.i1, cy.i0);
        data[3 * W + X] = src.at(cx.i1, cy.i1);
        dxRow[X] = cx.frac;
      }
      const auto ds = acc.encodePixels(data);
      const auto sxs = acc.encodePixels(dxRow);
      const sc::Bitstream sy = acc.encodePixel(cy.frac);
      for (std::size_t X = 0; X < W; ++X) {
        out.at(X, Y) = acc.decodePixel(acc.ops().majMux4(
            ds[X], ds[W + X], ds[2 * W + X], ds[3 * W + X], sxs[X], sy));
      }
    }
  });
  return out;
}

TEST(BackendEquivalence, CompositingTiledBitIdenticalToSeedPath) {
  const apps::CompositingScene scene = apps::makeCompositingScene(20, 18, 7);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    TileExecutor seedExec(tileCfg(threads));
    TileExecutor newExec(tileCfg(threads));
    const img::Image seed = seedCompositeReramScTiled(scene, seedExec);
    const img::Image out = apps::runTiled(apps::framesOf(scene), newExec);
    EXPECT_EQ(out.pixels(), seed.pixels()) << "threads=" << threads;
    EXPECT_EQ(newExec.totalEvents(), seedExec.totalEvents());
  }
}

TEST(BackendEquivalence, CompositingTiledBitIdenticalUnderFaults) {
  const apps::CompositingScene scene = apps::makeCompositingScene(16, 16, 9);
  TileExecutor seedExec(tileCfg(0, /*faults=*/true));
  TileExecutor newExec(tileCfg(0, /*faults=*/true));
  const img::Image seed = seedCompositeReramScTiled(scene, seedExec);
  const img::Image out = apps::runTiled(apps::framesOf(scene), newExec);
  EXPECT_EQ(out.pixels(), seed.pixels());
  EXPECT_EQ(newExec.totalEvents(), seedExec.totalEvents());
}

TEST(BackendEquivalence, MattingTiledBitIdenticalToSeedPath) {
  const apps::MattingScene scene = apps::makeMattingScene(18, 16, 3);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    TileExecutor seedExec(tileCfg(threads));
    TileExecutor newExec(tileCfg(threads));
    const img::Image seed = seedMattingReramScTiled(scene, seedExec);
    const img::Image out = apps::runTiled(apps::framesOf(scene), newExec);
    EXPECT_EQ(out.pixels(), seed.pixels()) << "threads=" << threads;
    EXPECT_EQ(newExec.totalEvents(), seedExec.totalEvents());
  }
}

TEST(BackendEquivalence, BilinearTiledBitIdenticalToSeedPath) {
  const img::Image src = img::naturalScene(12, 10, 5);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    TileExecutor seedExec(tileCfg(threads));
    TileExecutor newExec(tileCfg(threads));
    const img::Image seed = seedUpscaleReramScTiled(src, 2, seedExec);
    const img::Image out = apps::runTiled(
        apps::framesOf(apps::AppKind::Bilinear, src), newExec);
    EXPECT_EQ(out.pixels(), seed.pixels()) << "threads=" << threads;
    EXPECT_EQ(newExec.totalEvents(), seedExec.totalEvents());
  }
}

TEST(BackendEquivalence, BinaryCimCompositingBitIdenticalToSeedLoop) {
  const apps::CompositingScene scene = apps::makeCompositingScene(20, 20, 11);
  // Verbatim pre-redesign integer loop.
  bincim::MagicEngine seedEngine;
  bincim::AritPim pim(seedEngine);
  img::Image seed(scene.background.width(), scene.background.height());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    const std::uint32_t f = scene.foreground[i];
    const std::uint32_t b = scene.background[i];
    const std::uint32_t a = scene.alpha[i];
    const std::uint32_t na = pim.subSaturating(255, a, 8);
    const std::uint32_t t1 = pim.mul(f, a, 8);
    const std::uint32_t t2 = pim.mul(b, na, 8);
    const std::uint32_t sum = pim.add(t1, t2, 16);
    const std::uint32_t rounded = pim.add(sum, 128, 17);
    const std::uint32_t v = rounded >> 8;
    seed[i] = static_cast<std::uint8_t>(v > 255 ? 255 : v);
  }

  bincim::MagicEngine newEngine;
  BinaryCimBackend backend(newEngine);
  const img::Image out = apps::compositeKernel(scene, backend);
  EXPECT_EQ(out.pixels(), seed.pixels());
  EXPECT_EQ(newEngine.gateOps(), seedEngine.gateOps());
}

TEST(BackendEquivalence, ReferenceCompositingBitIdenticalToSeedLoop) {
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 24, 13);
  img::Image seed(scene.background.width(), scene.background.height());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    const double f = scene.foreground[i] / 255.0;
    const double b = scene.background[i] / 255.0;
    const double a = scene.alpha[i] / 255.0;
    seed[i] = img::Image::fromProb(f * a + b * (1.0 - a));
  }
  EXPECT_EQ(apps::compositeReference(scene).pixels(), seed.pixels());
}

TEST(BackendEquivalence, RunAppReramScThreadCountInvariant) {
  apps::RunConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  cfg.streamLength = 128;
  apps::ParallelConfig par0{4, 0, 2};
  apps::ParallelConfig par4{4, 4, 2};
  for (const apps::AppKind app :
       {apps::AppKind::Compositing, apps::AppKind::Bilinear,
        apps::AppKind::Matting, apps::AppKind::Filters, apps::AppKind::Gamma,
        apps::AppKind::Morphology}) {
    const apps::Quality a = apps::runApp(app, DesignKind::ReramSc, cfg, par0);
    const apps::Quality b = apps::runApp(app, DesignKind::ReramSc, cfg, par4);
    EXPECT_EQ(a.psnrDb, b.psnrDb) << apps::appName(app);
    EXPECT_EQ(a.ssimPct, b.ssimPct) << apps::appName(app);
  }
}

TEST(BackendEquivalence, AllAppsRunOnAllDesigns) {
  apps::RunConfig cfg;
  cfg.width = 12;
  cfg.height = 12;
  cfg.streamLength = 64;
  for (const apps::AppKind app :
       {apps::AppKind::Compositing, apps::AppKind::Bilinear,
        apps::AppKind::Matting, apps::AppKind::Filters, apps::AppKind::Gamma,
        apps::AppKind::Morphology}) {
    for (const DesignKind d :
         {DesignKind::Reference, DesignKind::SwScLfsr, DesignKind::SwScSobol,
          DesignKind::SwScSfmt, DesignKind::SwScSimd, DesignKind::ReramSc,
          DesignKind::BinaryCim}) {
      const apps::Quality q = apps::runApp(app, d, cfg);
      EXPECT_GT(q.psnrDb, 5.0) << apps::appName(app) << " / "
                               << designKindName(d);
    }
  }
}

TEST(BackendEquivalence, GammaKernelBitIdenticalToSeedReramPath) {
  // Verbatim copy of the pre-refactor ReRAM-only gamma loop: the
  // backend-generic gammaKernel must reproduce it bit for bit.
  const img::Image src = img::naturalScene(10, 8, 21);
  const double gamma = 2.2;
  const int degree = 4;

  AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.device = reram::DeviceParams::ideal();

  Accelerator seedAcc(cfg);
  const std::vector<double> b = sc::bernsteinCoefficientsOf(
      [gamma](double t) { return std::pow(t, gamma); }, degree);
  img::Image seed(src.width(), src.height());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    std::vector<sc::Bitstream> xCopies;
    for (int j = 0; j < degree; ++j) {
      xCopies.push_back(seedAcc.encodePixel(src[i]));
    }
    std::vector<sc::Bitstream> coeffs;
    for (const double bk : b) coeffs.push_back(seedAcc.encodeProb(bk));
    seed[i] = seedAcc.decodePixel(seedAcc.ops().bernsteinSelect(xCopies, coeffs));
  }

  Accelerator kernelAcc(cfg);
  ReramScBackend backend(kernelAcc);
  const img::Image out = apps::gammaKernel(src, gamma, backend, degree);
  EXPECT_EQ(out.pixels(), seed.pixels());
  EXPECT_EQ(kernelAcc.events(), seedAcc.events());
}

TEST(BackendEquivalence, AcceleratorBatchedDecodeMatchesScalar) {
  AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.device = reram::DeviceParams::ideal();
  Accelerator batched(cfg);
  Accelerator scalar(cfg);  // same seed -> same TRNG stream

  const std::vector<std::uint8_t> values{0, 17, 128, 200, 255};
  const auto sb = batched.encodePixels(values);
  const auto ss = scalar.encodePixels(values);

  const auto decodedBatch = batched.decodePixels(sb);
  const auto storedBatch = batched.decodePixelsStored(sb);
  ASSERT_EQ(decodedBatch.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decodedBatch[i], scalar.decodePixel(ss[i]));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(storedBatch[i], scalar.decodePixelStored(ss[i]));
  }
  // Identical event accounting (per-stream charges, nothing amortized away).
  EXPECT_EQ(batched.events(), scalar.events());
}

// --- SW-SC word-level encode vs the per-bit SNG path -----------------------
//
// SwScBackend encodes through a per-epoch comparator byte cache.  The oracle
// below is the per-bit path it replaced: every stream restarts the epoch's
// source and draws N comparator bytes through sc::generateSbsFromProb.

std::unique_ptr<sc::RandomSource> perBitEpochSource(const SwScConfig& cfg,
                                                    std::uint64_t epoch) {
  switch (cfg.sng) {
    case SwScSng::Lfsr:
      return std::make_unique<sc::Lfsr>(
          sc::Lfsr::paper8Bit(swScLfsrSeedForEpoch(cfg.seed, epoch)));
    case SwScSng::Sobol: {
      const SwScSobolEpoch p = swScSobolForEpoch(cfg.seed, epoch);
      return std::make_unique<sc::Sobol>(p.dimension, p.skip);
    }
    case SwScSng::Sfmt:
      return std::make_unique<sc::Sfmt>(swScSfmtSeedForEpoch(cfg.seed, epoch));
  }
  return nullptr;
}

std::vector<sc::Bitstream> perBitEncode(sc::RandomSource& epochSource,
                                        const SwScConfig& cfg,
                                        std::span<const std::uint8_t> values) {
  std::vector<sc::Bitstream> out;
  for (const std::uint8_t v : values) {
    epochSource.reset();
    out.push_back(sc::generateSbsFromProb(
        epochSource, static_cast<double>(v) / 255.0, 8, cfg.streamLength));
  }
  return out;
}

class SwScPerBitPath : public ::testing::TestWithParam<SwScSng> {};

TEST_P(SwScPerBitPath, WordLevelEncodeMatchesPerBitSng) {
  SwScConfig cfg;
  cfg.sng = GetParam();
  cfg.streamLength = 200;  // not a word multiple: exercises the tail
  cfg.seed = 0x5eedf00d;
  SwScBackend backend(cfg);
  // The constructor opens epoch 1; every fresh-epoch encode opens the next.
  std::uint64_t epoch = 1;
  std::unique_ptr<sc::RandomSource> source;
  const std::vector<std::uint8_t> rows[] = {
      {0, 1, 17, 128, 254, 255}, {200, 3, 77}, {128, 128, 9, 250}};
  for (int round = 0; round < 6; ++round) {
    for (const auto& values : rows) {
      // Fresh epoch, then two correlated joins of the same epoch.
      std::vector<ScValue> got(values.size());
      backend.encodePixelsInto(values, got);
      source = perBitEpochSource(cfg, ++epoch);
      auto want = perBitEncode(*source, cfg, values);
      for (int join = 0; join < 3; ++join) {
        for (std::size_t i = 0; i < values.size(); ++i) {
          EXPECT_EQ(got[i].stream, want[i])
              << swScSngName(cfg.sng) << " epoch " << epoch << " value "
              << int{values[i]} << " join " << join;
        }
        backend.encodePixelsCorrelatedInto(values, got);
        want = perBitEncode(*source, cfg, values);
      }
    }
  }
  // Constants come from the pool and must not advance the epoch counter.
  ScValue constant;
  backend.encodeProbInto(constant, 0.3);
  std::vector<ScValue> got(1);
  const std::vector<std::uint8_t> one{99};
  backend.encodePixelsInto(one, got);
  source = perBitEpochSource(cfg, ++epoch);
  EXPECT_EQ(got[0].stream, perBitEncode(*source, cfg, one)[0]);
}

INSTANTIATE_TEST_SUITE_P(Families, SwScPerBitPath,
                         ::testing::Values(SwScSng::Lfsr, SwScSng::Sobol,
                                           SwScSng::Sfmt),
                         [](const ::testing::TestParamInfo<SwScSng>& info) {
                           return std::string(swScSngName(info.param));
                         });

// --- generic (non-ReRAM) lane fleets ---------------------------------------

TEST(TileExecutorBackend, ReferenceLaneFleetMatchesSerialReference) {
  const apps::CompositingScene scene = apps::makeCompositingScene(20, 14, 2);
  std::vector<std::unique_ptr<ScBackend>> lanes;
  for (int i = 0; i < 3; ++i) lanes.push_back(std::make_unique<ReferenceBackend>());
  ParallelConfig par;
  par.threads = 2;
  par.rowsPerTile = 3;
  TileExecutor exec(std::move(lanes), par);
  EXPECT_EQ(exec.lanes(), 3u);
  const img::Image out = apps::runTiled(apps::framesOf(scene), exec);
  EXPECT_EQ(out.pixels(), apps::compositeReference(scene).pixels());
  // Accelerator-level access is a ReRAM-fleet feature.
  EXPECT_THROW(exec.lane(0), std::logic_error);
  EXPECT_THROW(exec.group(), std::logic_error);
  EXPECT_EQ(exec.totalEvents(), reram::EventCounts{});
}

TEST(TileExecutorBackend, BackendLanesAreTheMatWrappers) {
  TileExecutor exec(tileCfg(0));
  // The backend lane view wraps the same mats as the Accelerator view.
  auto* lane0 = dynamic_cast<ReramScBackend*>(&exec.backend(0));
  ASSERT_NE(lane0, nullptr);
  EXPECT_EQ(&lane0->accelerator(), &exec.lane(0));
}

}  // namespace
}  // namespace aimsc::core
