// Application kernels: references vs SC vs binary CIM (fault-free
// functional checks; Table IV statistics live in the bench).
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/runner.hpp"
#include "core/backend_bincim.hpp"
#include "core/backend_reram.hpp"
#include "core/backend_swsc.hpp"
#include "img/metrics.hpp"
#include "img/synth.hpp"

namespace aimsc::apps {
namespace {

RunConfig smallConfig(std::size_t n = 128) {
  RunConfig cfg;
  cfg.width = 24;
  cfg.height = 24;
  cfg.streamLength = n;
  return cfg;
}

// --- scenes -------------------------------------------------------------------

TEST(Scenes, CompositingSceneShapes) {
  const CompositingScene s = makeCompositingScene(32, 24, 1);
  EXPECT_TRUE(s.background.sameShape(s.foreground));
  EXPECT_TRUE(s.background.sameShape(s.alpha));
  EXPECT_EQ(s.background.width(), 32u);
  EXPECT_EQ(s.background.height(), 24u);
}

TEST(Scenes, MattingSceneCompositeIsBlend) {
  const MattingScene s = makeMattingScene(24, 24, 2);
  const img::Image blend = blendWithAlpha(s, s.trueAlpha);
  EXPECT_EQ(blend.pixels(), s.composite.pixels());
}

// --- compositing ----------------------------------------------------------------

TEST(Compositing, ReferenceInterpolatesBetweenLayers) {
  CompositingScene s;
  s.background = img::Image(4, 4, 0);
  s.foreground = img::Image(4, 4, 200);
  s.alpha = img::Image(4, 4, 128);
  const img::Image c = compositeReference(s);
  EXPECT_NEAR(c.at(0, 0), 100, 1);
}

TEST(Compositing, BinaryCimMatchesReferenceFaultFree) {
  const CompositingScene s = makeCompositingScene(24, 24, 3);
  bincim::MagicEngine engine;
  core::BinaryCimBackend b(engine);
  const img::Image out = compositeKernel(s, b);
  const img::Image ref = compositeReference(s);
  EXPECT_LE(img::meanAbsError(out, ref), 1.0);  // rounding only
  EXPECT_GT(img::ssim(out, ref), 0.995);
}

TEST(Compositing, ReramScTracksReference) {
  const CompositingScene s = makeCompositingScene(20, 20, 4);
  core::AcceleratorConfig ac;
  ac.streamLength = 256;
  ac.device = reram::DeviceParams::ideal();
  core::ReramScBackend b(ac);
  const img::Image out = compositeKernel(s, b);
  const img::Image ref = compositeReference(s);
  EXPECT_GT(img::psnrDb(out, ref), 18.0);
  EXPECT_GT(img::ssim(out, ref), 0.7);
}

TEST(Compositing, SwScLfsrAndSobolWork) {
  const CompositingScene s = makeCompositingScene(16, 16, 5);
  const img::Image ref = compositeReference(s);
  auto swsc = [&](core::SwScSng sng) {
    core::SwScConfig cfg;
    cfg.streamLength = 256;
    cfg.sng = sng;
    cfg.seed = 9;
    core::SwScBackend b(cfg);
    return compositeKernel(s, b);
  };
  const img::Image lfsr = swsc(core::SwScSng::Lfsr);
  const img::Image sobol = swsc(core::SwScSng::Sobol);
  EXPECT_GT(img::psnrDb(lfsr, ref), 17.0);
  // Sobol streams are far more accurate (Table I).
  EXPECT_GT(img::psnrDb(sobol, ref), img::psnrDb(lfsr, ref));
}

// --- bilinear -------------------------------------------------------------------

TEST(Bilinear, MapCoordEndpoints) {
  const SampleCoord c0 = mapCoord(0, 64, 32);
  EXPECT_EQ(c0.i0, 0u);
  EXPECT_EQ(c0.frac, 0);
  const SampleCoord cEnd = mapCoord(63, 64, 32);
  EXPECT_EQ(cEnd.i1, 31u);
  EXPECT_EQ(cEnd.frac, 255);
}

TEST(Bilinear, ReferencePreservesConstantImage) {
  const img::Image flat(8, 8, 77);
  const img::Image up = upscaleReference(flat, 2);
  EXPECT_EQ(up.width(), 16u);
  for (std::size_t i = 0; i < up.size(); ++i) EXPECT_EQ(up[i], 77);
}

TEST(Bilinear, ReferenceIsMonotoneOnGradient) {
  const img::Image g = img::gradient(16, 4, 0.0);
  const img::Image up = upscaleReference(g, 2);
  for (std::size_t x = 1; x < up.width(); ++x) {
    EXPECT_GE(up.at(x, 2) + 1, up.at(x - 1, 2));
  }
}

TEST(Bilinear, BinaryCimCloseToReference) {
  const img::Image src = img::naturalScene(16, 16, 6);
  bincim::MagicEngine engine;
  core::BinaryCimBackend b(engine);
  const img::Image out = upscaleKernel(src, 2, b);
  const img::Image ref = upscaleReference(src, 2);
  EXPECT_LE(img::meanAbsError(out, ref), 2.0);
}

TEST(Bilinear, ReramScTracksReference) {
  const img::Image src = img::naturalScene(12, 12, 7);
  core::AcceleratorConfig ac;
  ac.streamLength = 256;
  ac.device = reram::DeviceParams::ideal();
  core::ReramScBackend b(ac);
  const img::Image out = upscaleKernel(src, 2, b);
  const img::Image ref = upscaleReference(src, 2);
  // The three-MAJ tree is an approximation of the exact 4-to-1 MUX (error
  // grows away from 0.5 selects), so the bar is lower than compositing's.
  EXPECT_GT(img::psnrDb(out, ref), 13.5);
  EXPECT_GT(img::ssim(out, ref), 0.5);
}

// --- matting --------------------------------------------------------------------

TEST(Matting, ReferenceRecoversAlphaWhereWellConditioned) {
  const MattingScene s = makeMattingScene(32, 32, 8);
  const img::Image est = mattingReference(s);
  // Evaluate via the re-blend (Table IV protocol): should be near-perfect.
  const img::Image blend = blendWithAlpha(s, est);
  EXPECT_GT(img::psnrDb(blend, s.composite), 34.0);
}

TEST(Matting, ReramScBlendQuality) {
  const MattingScene s = makeMattingScene(20, 20, 9);
  core::AcceleratorConfig ac;
  ac.streamLength = 256;
  ac.device = reram::DeviceParams::ideal();
  core::ReramScBackend b(ac);
  const img::Image alpha = mattingKernel(s, b);
  const img::Image blend = blendWithAlpha(s, alpha);
  EXPECT_GT(img::psnrDb(blend, s.composite), 20.0);
}

TEST(Matting, BinaryCimFaultFreeIsAccurate) {
  const MattingScene s = makeMattingScene(20, 20, 10);
  bincim::MagicEngine engine;
  core::BinaryCimBackend b(engine);
  const img::Image alpha = mattingKernel(s, b);
  const img::Image blend = blendWithAlpha(s, alpha);
  EXPECT_GT(img::psnrDb(blend, s.composite), 30.0);
}

// --- runner ---------------------------------------------------------------------

TEST(Runner, AppNames) {
  EXPECT_STREQ(appName(AppKind::Compositing), "Image Compositing");
  EXPECT_STREQ(appName(AppKind::Bilinear), "Bilinear Interpolation");
  EXPECT_STREQ(appName(AppKind::Matting), "Image Matting");
  EXPECT_STREQ(appName(AppKind::Gamma), "Gamma Correction");
  EXPECT_STREQ(appName(AppKind::Morphology), "Morphology");
}

TEST(Runner, ParseAppAndDesignKindAreInverses) {
  for (const AppKind app :
       {AppKind::Compositing, AppKind::Bilinear, AppKind::Matting,
        AppKind::Filters, AppKind::Gamma, AppKind::Morphology}) {
    EXPECT_EQ(parseAppKind(appName(app)), app);
  }
  EXPECT_EQ(parseAppKind("matting"), AppKind::Matting);
  EXPECT_EQ(parseAppKind("MORPHOLOGY"), AppKind::Morphology);
  EXPECT_THROW(parseAppKind("no-such-app"), std::invalid_argument);
  for (const DesignKind d :
       {DesignKind::Reference, DesignKind::SwScLfsr, DesignKind::SwScSobol,
        DesignKind::SwScSimd, DesignKind::ReramSc, DesignKind::BinaryCim}) {
    EXPECT_EQ(core::parseDesignKind(core::designKindName(d)), d);
  }
  EXPECT_EQ(core::parseDesignKind("swsc-lfsr"), DesignKind::SwScLfsr);
  EXPECT_EQ(core::parseDesignKind("ReRAM-SC"), DesignKind::ReramSc);
  EXPECT_THROW(core::parseDesignKind("gpu"), std::invalid_argument);
}

TEST(Runner, FaultFreeQualityOrdering) {
  // Binary CIM (exact arithmetic) must beat SC when fault-free.
  const RunConfig cfg = smallConfig(128);
  for (const AppKind app : {AppKind::Compositing, AppKind::Matting}) {
    const Quality bin = runApp(app, DesignKind::BinaryCim, cfg);
    const Quality sc = runApp(app, DesignKind::ReramSc, cfg);
    EXPECT_GT(bin.psnrDb, sc.psnrDb) << appName(app);
    EXPECT_GT(sc.ssimPct, 50.0) << appName(app);
  }
}

TEST(Runner, FaultsHurtBinaryCimMoreThanSc) {
  // The core Table IV claim, in miniature.
  RunConfig cfg = smallConfig(128);
  const Quality scClean = runApp(AppKind::Compositing, DesignKind::ReramSc, cfg);
  const Quality binClean =
      runApp(AppKind::Compositing, DesignKind::BinaryCim, cfg);
  cfg.faults = reliability::FaultPlan::deviceOnly(defaultFaultyDevice());
  const Quality scFaulty =
      runApp(AppKind::Compositing, DesignKind::ReramSc, cfg);
  const Quality binFaulty =
      runApp(AppKind::Compositing, DesignKind::BinaryCim, cfg);
  const double scDrop = scClean.ssimPct - scFaulty.ssimPct;
  const double binDrop = binClean.ssimPct - binFaulty.ssimPct;
  EXPECT_LT(scDrop, binDrop + 1.0);
  EXPECT_LT(scDrop, 10.0);  // SC stays within a few percent
}

TEST(Runner, ProfilesHaveMeasuredGateCounts) {
  for (const AppKind app :
       {AppKind::Compositing, AppKind::Bilinear, AppKind::Matting,
        AppKind::Filters, AppKind::Gamma, AppKind::Morphology}) {
    const energy::AppProfile p = profileFor(app);
    EXPECT_GT(p.bincimGateOps, 100.0) << appName(app);
    EXPECT_GT(p.conversionsPerElement, 0.0);
  }
  // Matting (division) must be the most expensive binary kernel.
  EXPECT_GT(profileFor(AppKind::Matting).bincimGateOps,
            profileFor(AppKind::Compositing).bincimGateOps);
}

}  // namespace
}  // namespace aimsc::apps
