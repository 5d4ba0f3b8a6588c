// ScBackend conformance suite (every backend must pass) plus bit-identity
// regression tests: the backend-generic kernels against the pre-redesign
// per-app implementations, whose call sequences are kept verbatim.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
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
#include "core/backend_swsc_simd.hpp"
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
    // SwScSimd is an alias of SwScLfsr, and its backend says so.
    EXPECT_STREQ(b->name(), designKindName(d == DesignKind::SwScSimd
                                               ? DesignKind::SwScLfsr
                                               : d));
  }
}

// --- bit-identity vs the pre-redesign implementations ----------------------
//
// The ReRAM loops below issue the former hand-written per-app functions'
// call sequence, verbatim, on the mat's destination-passing forms; they are
// the regression oracle proving the backend-generic kernels reproduce them
// bit for bit (ReRAM-SC at thread counts 0 and 4, fault-free and faulty).

/// The four-lane ReRAM-SC fleet the bit-identity tests tile over.
TileExecutor reramFleet(std::size_t threads, bool faults = false) {
  BackendFactoryConfig bc;
  bc.streamLength = 256;
  if (faults) {
    bc.faults = reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice(),
                                                   20000);
  }
  ParallelConfig par;
  par.threads = threads;
  par.rowsPerTile = 2;
  return TileExecutor(makeBackendLanes(DesignKind::ReramSc, bc, 4), par);
}

/// The mat behind a fleet lane (the seed loops drive it directly).
Accelerator& matOf(ScBackend& lane) {
  return dynamic_cast<ReramScBackend&>(lane).accelerator();
}

/// Borrowed destinations for the mat's batch encodes.
std::vector<sc::Bitstream*> slots(std::vector<sc::Bitstream>& streams) {
  std::vector<sc::Bitstream*> ptrs;
  for (auto& s : streams) ptrs.push_back(&s);
  return ptrs;
}

img::Image seedCompositeReramScTiled(const apps::CompositingScene& scene,
                                     TileExecutor& exec) {
  const std::size_t w = scene.background.width();
  img::Image out(w, scene.background.height());
  exec.forEachTile(out.height(), [&](ScBackend& lane, StreamArena&,
                                     std::size_t r0, std::size_t r1) {
    Accelerator& acc = matOf(lane);
    std::vector<std::uint8_t> frow(w);
    std::vector<std::uint8_t> brow(w);
    std::vector<std::uint8_t> arow(w);
    std::vector<sc::Bitstream> fs(w);
    std::vector<sc::Bitstream> bs(w);
    std::vector<sc::Bitstream> as(w);
    sc::Bitstream blend;
    for (std::size_t y = r0; y < r1; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        frow[x] = scene.foreground.at(x, y);
        brow[x] = scene.background.at(x, y);
        arow[x] = scene.alpha.at(x, y);
      }
      acc.encodePixelsInto(frow, slots(fs));
      acc.encodePixelsCorrelatedInto(brow, slots(bs));
      acc.encodePixelsInto(arow, slots(as));
      for (std::size_t x = 0; x < w; ++x) {
        acc.ops().majMuxInto(blend, fs[x], bs[x], as[x]);
        out.at(x, y) = acc.decodePixel(blend);
      }
    }
  });
  return out;
}

img::Image seedMattingReramScTiled(const apps::MattingScene& scene,
                                   TileExecutor& exec) {
  const std::size_t w = scene.composite.width();
  img::Image out(w, scene.composite.height());
  exec.forEachTile(out.height(), [&](ScBackend& lane, StreamArena&,
                                     std::size_t r0, std::size_t r1) {
    Accelerator& acc = matOf(lane);
    std::vector<std::uint8_t> irow(w);
    std::vector<std::uint8_t> brow(w);
    std::vector<std::uint8_t> frow(w);
    std::vector<sc::Bitstream> is(w);
    std::vector<sc::Bitstream> bs(w);
    std::vector<sc::Bitstream> fs(w);
    sc::Bitstream num;
    sc::Bitstream den;
    sc::Bitstream alpha;
    for (std::size_t y = r0; y < r1; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        irow[x] = scene.composite.at(x, y);
        brow[x] = scene.background.at(x, y);
        frow[x] = scene.foreground.at(x, y);
      }
      acc.encodePixelsInto(irow, slots(is));
      acc.encodePixelsCorrelatedInto(brow, slots(bs));
      acc.encodePixelsCorrelatedInto(frow, slots(fs));
      for (std::size_t x = 0; x < w; ++x) {
        acc.ops().absSubInto(num, is[x], bs[x]);
        acc.ops().absSubInto(den, fs[x], bs[x]);
        acc.ops().divideInto(alpha, num, den);
        out.at(x, y) = acc.decodePixelStored(alpha);
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
  exec.forEachTile(H, [&](ScBackend& lane, StreamArena&, std::size_t r0,
                          std::size_t r1) {
    Accelerator& acc = matOf(lane);
    std::vector<std::uint8_t> data(4 * W);
    std::vector<std::uint8_t> dxRow(W);
    std::vector<sc::Bitstream> ds(4 * W);
    std::vector<sc::Bitstream> sxs(W);
    sc::Bitstream sy;
    sc::Bitstream blend;
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
      acc.encodePixelsInto(data, slots(ds));
      acc.encodePixelsInto(dxRow, slots(sxs));
      acc.encodeProbInto(sy, static_cast<double>(cy.frac) / 255.0);
      for (std::size_t X = 0; X < W; ++X) {
        acc.ops().majMux4Into(blend, ds[X], ds[W + X], ds[2 * W + X],
                              ds[3 * W + X], sxs[X], sy);
        out.at(X, Y) = acc.decodePixel(blend);
      }
    }
  });
  return out;
}

TEST(BackendEquivalence, CompositingTiledBitIdenticalToSeedPath) {
  const apps::CompositingScene scene = apps::makeCompositingScene(20, 18, 7);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    TileExecutor seedExec = reramFleet(threads);
    TileExecutor newExec = reramFleet(threads);
    const img::Image seed = seedCompositeReramScTiled(scene, seedExec);
    const img::Image out = apps::runTiled(apps::framesOf(scene), newExec);
    EXPECT_EQ(out.pixels(), seed.pixels()) << "threads=" << threads;
    EXPECT_EQ(newExec.totalEvents(), seedExec.totalEvents());
  }
}

TEST(BackendEquivalence, CompositingTiledBitIdenticalUnderFaults) {
  const apps::CompositingScene scene = apps::makeCompositingScene(16, 16, 9);
  TileExecutor seedExec = reramFleet(0, /*faults=*/true);
  TileExecutor newExec = reramFleet(0, /*faults=*/true);
  const img::Image seed = seedCompositeReramScTiled(scene, seedExec);
  const img::Image out = apps::runTiled(apps::framesOf(scene), newExec);
  EXPECT_EQ(out.pixels(), seed.pixels());
  EXPECT_EQ(newExec.totalEvents(), seedExec.totalEvents());
}

TEST(BackendEquivalence, MattingTiledBitIdenticalToSeedPath) {
  const apps::MattingScene scene = apps::makeMattingScene(18, 16, 3);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    TileExecutor seedExec = reramFleet(threads);
    TileExecutor newExec = reramFleet(threads);
    const img::Image seed = seedMattingReramScTiled(scene, seedExec);
    const img::Image out = apps::runTiled(apps::framesOf(scene), newExec);
    EXPECT_EQ(out.pixels(), seed.pixels()) << "threads=" << threads;
    EXPECT_EQ(newExec.totalEvents(), seedExec.totalEvents());
  }
}

TEST(BackendEquivalence, BilinearTiledBitIdenticalToSeedPath) {
  const img::Image src = img::naturalScene(12, 10, 5);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    TileExecutor seedExec = reramFleet(threads);
    TileExecutor newExec = reramFleet(threads);
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
  // The pre-refactor ReRAM-only gamma loop's call sequence, verbatim on the
  // mat's destination-passing forms: the backend-generic gammaKernel must
  // reproduce it bit for bit.
  const img::Image src = img::naturalScene(10, 8, 21);
  const double gamma = 2.2;
  const int degree = 4;

  AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.device = reram::DeviceParams::ideal();

  Accelerator seedAcc(cfg);
  const std::vector<double> b = sc::bernsteinCoefficientsOf(
      [gamma](double t) { return std::pow(t, gamma); }, degree);
  std::vector<sc::Bitstream> xCopies(degree);
  std::vector<sc::Bitstream> coeffs(b.size());
  std::vector<const sc::Bitstream*> copyPtrs;
  std::vector<const sc::Bitstream*> coeffPtrs;
  for (const auto& c : xCopies) copyPtrs.push_back(&c);
  for (const auto& c : coeffs) coeffPtrs.push_back(&c);
  sc::Bitstream selected;
  img::Image seed(src.width(), src.height());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    for (auto& copy : xCopies) {
      seedAcc.encodeProbInto(copy, static_cast<double>(src[i]) / 255.0);
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
      seedAcc.encodeProbInto(coeffs[k], b[k]);
    }
    seedAcc.ops().bernsteinSelectInto(selected, copyPtrs, coeffPtrs);
    seed[i] = seedAcc.decodePixel(selected);
  }

  ReramScBackend backend(cfg);
  const img::Image out = apps::gammaKernel(src, gamma, backend, degree);
  EXPECT_EQ(out.pixels(), seed.pixels());
  EXPECT_EQ(backend.events(), seedAcc.events());
}

TEST(BackendEquivalence, ReramBatchedDecodeMatchesScalar) {
  AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.device = reram::DeviceParams::ideal();
  ReramScBackend batched(cfg);
  Accelerator scalar(cfg);  // same seed -> same TRNG stream

  const std::vector<std::uint8_t> values{0, 17, 128, 200, 255};
  std::vector<ScValue> sb = batched.encodePixels(values);
  std::vector<sc::Bitstream> ss(values.size());
  scalar.encodePixelsInto(values, slots(ss));

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
// Both SW-SC engines encode through a per-epoch comparator byte cache: the
// scalar oracle walks the epoch's generator, the bulk engine copies LFSR
// draws from the cycle table and batches SFMT epochs.  The oracle below is
// the per-bit path they replaced: every stream restarts the epoch's source
// and draws N comparator bytes through sc::generateSbsFromProb.

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

enum class SwScEngine { Scalar, Bulk };

std::unique_ptr<ScBackend> makeSwScEngine(SwScEngine engine,
                                          const SwScConfig& cfg) {
  if (engine == SwScEngine::Scalar) return std::make_unique<SwScBackend>(cfg);
  SwScSimdConfig bulk;
  static_cast<SwScConfig&>(bulk) = cfg;
  return std::make_unique<SwScSimdBackend>(bulk);
}

class SwScPerBitPath
    : public ::testing::TestWithParam<std::tuple<SwScSng, SwScEngine>> {};

TEST_P(SwScPerBitPath, WordLevelEncodeMatchesPerBitSng) {
  SwScConfig cfg;
  cfg.sng = std::get<0>(GetParam());
  cfg.streamLength = 200;  // not a word multiple: exercises the tail
  cfg.seed = 0x5eedf00d;
  const auto engine = makeSwScEngine(std::get<1>(GetParam()), cfg);
  ScBackend& backend = *engine;
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

INSTANTIATE_TEST_SUITE_P(
    Families, SwScPerBitPath,
    ::testing::Combine(::testing::Values(SwScSng::Lfsr, SwScSng::Sobol,
                                         SwScSng::Sfmt),
                       ::testing::Values(SwScEngine::Scalar,
                                         SwScEngine::Bulk)),
    [](const auto& info) {
      return std::string(swScSngName(std::get<0>(info.param))) +
             (std::get<1>(info.param) == SwScEngine::Scalar ? "Scalar"
                                                            : "Bulk");
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
  EXPECT_EQ(exec.totalEvents(), reram::EventCounts{});
}

}  // namespace
}  // namespace aimsc::core
