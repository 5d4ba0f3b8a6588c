// Extension apps: 8-neighbour smoothing and Roberts-cross edge detection.
#include <gtest/gtest.h>

#include "apps/filters.hpp"
#include "core/backend_bincim.hpp"
#include "core/backend_reram.hpp"
#include "img/metrics.hpp"
#include "img/synth.hpp"

namespace aimsc::apps {
namespace {

core::AcceleratorConfig idealAcc(std::size_t n = 256) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = n;
  cfg.device = reram::DeviceParams::ideal();
  return cfg;
}

TEST(Smooth, ReferenceFlattensNoiseKeepsFlats) {
  img::Image flat(16, 16, 100);
  EXPECT_EQ(smoothReference(flat).pixels(), flat.pixels());

  // A single bright pixel spreads to its neighbours and loses amplitude.
  img::Image impulse(9, 9, 0);
  impulse.at(4, 4) = 240;
  const img::Image s = smoothReference(impulse);
  EXPECT_EQ(s.at(4, 4), 0);        // centre excluded from its own average
  EXPECT_EQ(s.at(3, 4), 30);       // 240 / 8
  EXPECT_EQ(s.at(3, 3), 30);
  EXPECT_EQ(s.at(0, 0), 0);        // border copied through
}

TEST(Smooth, ReferenceReducesVariance) {
  const img::Image noisy = img::gaussianBlobs(24, 24, 12, 3);
  const img::Image s = smoothReference(noisy);
  auto variance = [](const img::Image& im) {
    double mean = 0;
    for (std::size_t i = 0; i < im.size(); ++i) mean += im[i];
    mean /= static_cast<double>(im.size());
    double var = 0;
    for (std::size_t i = 0; i < im.size(); ++i) {
      var += (im[i] - mean) * (im[i] - mean);
    }
    return var / static_cast<double>(im.size());
  };
  EXPECT_LT(variance(s), variance(noisy));
}

TEST(Smooth, BinaryCimMatchesReference) {
  const img::Image src = img::naturalScene(16, 16, 5);
  bincim::MagicEngine engine;
  core::BinaryCimBackend b(engine);
  const img::Image out = smoothKernel(src, b);
  const img::Image ref = smoothReference(src);
  // The integer MAJ-tree decomposition rounds at each of the seven scaled
  // additions (the float reference rounds once, at decode).
  EXPECT_LE(img::meanAbsError(out, ref), 2.0);
}

TEST(Smooth, ReramScTracksReference) {
  const img::Image src = img::naturalScene(14, 14, 6);
  core::ReramScBackend b(idealAcc(512));
  const img::Image out = smoothKernel(src, b);
  const img::Image ref = smoothReference(src);
  EXPECT_GT(img::psnrDb(out, ref), 20.0);
}

TEST(Edge, ReferenceOnStepEdge) {
  img::Image img(8, 8, 0);
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 4; x < 8; ++x) img.at(x, y) = 200;
  }
  const img::Image e = edgeReference(img);
  // Roberts cross fires on the column straddling the step.
  EXPECT_EQ(e.at(3, 3), 200);
  EXPECT_EQ(e.at(1, 3), 0);
  EXPECT_EQ(e.at(6, 3), 0);
}

TEST(Edge, ReferenceOnFlatIsZero) {
  const img::Image flat(10, 10, 77);
  const img::Image e = edgeReference(flat);
  for (std::size_t i = 0; i < e.size(); ++i) EXPECT_EQ(e[i], 0);
}

TEST(Edge, BinaryCimMatchesReference) {
  const img::Image src = img::naturalScene(16, 16, 7);
  bincim::MagicEngine engine;
  core::BinaryCimBackend b(engine);
  const img::Image out = edgeKernel(src, b);
  const img::Image ref = edgeReference(src);
  EXPECT_LE(img::meanAbsError(out, ref), 1.0);
}

TEST(Edge, ReramScDetectsTheStep) {
  img::Image img(10, 10, 20);
  for (std::size_t y = 0; y < 10; ++y) {
    for (std::size_t x = 5; x < 10; ++x) img.at(x, y) = 230;
  }
  core::ReramScBackend b(idealAcc(512));
  const img::Image e = edgeKernel(img, b);
  // Strong response on the edge, weak off it.
  EXPECT_GT(e.at(4, 4), 70);
  EXPECT_LT(e.at(1, 4), 40);
  EXPECT_LT(e.at(7, 4), 40);
}

TEST(Edge, ReramScTracksReferenceOnNaturalScene) {
  const img::Image src = img::naturalScene(14, 14, 8);
  core::ReramScBackend b(idealAcc(512));
  const img::Image out = edgeKernel(src, b);
  const img::Image ref = edgeReference(src);
  EXPECT_LE(img::meanAbsError(out, ref), 14.0);
}

TEST(Gamma, ReferenceDarkensMidtones) {
  img::Image img(2, 1);
  img.at(0, 0) = 128;
  img.at(1, 0) = 255;
  const img::Image g = gammaReference(img, 2.2);
  EXPECT_LT(g.at(0, 0), 70);    // 0.5^2.2 ~ 0.217
  EXPECT_EQ(g.at(1, 0), 255);   // endpoints fixed
}

TEST(Gamma, ReramScBernsteinTracksReference) {
  const img::Image src = img::gradient(16, 4, 0.0);
  core::ReramScBackend backend(idealAcc(2048));
  const img::Image out = gammaKernel(src, 2.2, backend, 4);
  const img::Image ref = gammaReference(src, 2.2);
  // Bernstein degree-4 approximation + SC noise: stays within ~8%.
  EXPECT_LE(img::meanAbsError(out, ref), 20.0);
  EXPECT_GT(img::psnrDb(out, ref), 20.0);
}

TEST(Gamma, HigherDegreeImprovesApproximation) {
  const img::Image src = img::gradient(24, 2, 0.0);
  core::ReramScBackend b2(idealAcc(4096));
  core::ReramScBackend b6(idealAcc(4096));
  const img::Image ref = gammaReference(src, 2.2);
  const double err2 = img::meanAbsError(gammaKernel(src, 2.2, b2, 2), ref);
  const double err6 = img::meanAbsError(gammaKernel(src, 2.2, b6, 6), ref);
  EXPECT_LT(err6, err2 + 1.0);
}

TEST(Filters, FaultyExecutionStaysBounded) {
  const img::Image src = img::naturalScene(10, 10, 9);
  core::AcceleratorConfig cfg;
  cfg.streamLength = 128;
  cfg.deviceVariability = true;
  cfg.device.sigmaLrs = 0.15;
  cfg.device.sigmaHrs = 1.2;
  cfg.faultModelSamples = 20000;
  core::ReramScBackend b(cfg);
  const img::Image out = smoothKernel(src, b);
  const img::Image ref = smoothReference(src);
  EXPECT_GT(img::psnrDb(out, ref), 15.0);
}

}  // namespace
}  // namespace aimsc::apps
