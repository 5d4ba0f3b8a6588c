// Cross-module integration tests: the full SC flow of Fig. 1 executed end
// to end, plus consistency between the software SC layer and the in-memory
// engine on identical random numbers.
#include <gtest/gtest.h>

#include "apps/runner.hpp"
#include "core/accelerator.hpp"
#include "energy/cost_model.hpp"
#include "sc/correlation.hpp"
#include "sc/ops.hpp"

namespace aimsc {
namespace {

TEST(Integration, FullFlowComputePipeline) {
  // x*y, (x+y)/2, |x-y|, min, max, x/y — all through one accelerator, all
  // three SC stages in memory, checked against real arithmetic.
  core::AcceleratorConfig cfg;
  cfg.streamLength = 4096;
  cfg.device = reram::DeviceParams::ideal();
  core::Accelerator acc(cfg);

  const double px = 0.35;
  const double py = 0.7;

  // Independent set for multiply/add.
  sc::Bitstream xi, yi, half, r;
  acc.encodeProbInto(xi, px);
  acc.encodeProbInto(yi, py);
  acc.encodeProbInto(half, 0.5);
  acc.ops().multiplyInto(r, xi, yi);
  EXPECT_NEAR(acc.decodeProb(r), px * py, 0.04);
  acc.ops().scaledAddInto(r, xi, yi, half);
  EXPECT_NEAR(acc.decodeProb(r), (px + py) / 2, 0.04);

  // Correlated set for sub/min/max/div.
  sc::Bitstream xc, yc;
  acc.encodeProbInto(xc, px);
  acc.encodeProbCorrelatedInto(yc, py);
  acc.ops().absSubInto(r, xc, yc);
  EXPECT_NEAR(acc.decodeProb(r), py - px, 0.04);
  acc.ops().minimumInto(r, xc, yc);
  EXPECT_NEAR(acc.decodeProb(r), px, 0.04);
  acc.ops().maximumInto(r, xc, yc);
  EXPECT_NEAR(acc.decodeProb(r), py, 0.04);
  acc.ops().divideInto(r, xc, yc);
  EXPECT_NEAR(acc.decodeProb(r), px / py, 0.06);
}

TEST(Integration, EventLedgerCoversWholeFlow) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.device = reram::DeviceParams::ideal();
  core::Accelerator acc(cfg);
  acc.resetEvents();

  sc::Bitstream x, y, p;
  acc.encodeProbInto(x, 0.4);
  acc.encodeProbInto(y, 0.5);
  acc.ops().multiplyInto(p, x, y);
  acc.decodeCode(p);

  const auto& ev = acc.events();
  EXPECT_EQ(ev.slReads, 81u);         // 2 conversions * 40 + 1 op
  EXPECT_EQ(ev.rowWrites, 2u);        // 2 SBS commits
  EXPECT_EQ(ev.trngBits, 2u * 2048u); // 2 plane refreshes
  EXPECT_EQ(ev.adcConversions, 1u);
  EXPECT_EQ(ev.cordivIterations, 0u);

  const energy::CostBreakdown cost = energy::CostModel(256).cost(ev);
  EXPECT_GT(cost.totalLatencyNs(), 150.0);
  EXPECT_LT(cost.totalLatencyNs(), 250.0);
}

TEST(Integration, InMemoryMatchesSoftwareOnSamePlanes) {
  // Contract: the in-memory flow is *bit-exact* against the software SC
  // layer when both see the same random numbers and no faults.
  core::AcceleratorConfig cfg;
  cfg.streamLength = 1024;
  cfg.device = reram::DeviceParams::ideal();
  core::Accelerator acc(cfg);

  sc::Bitstream a, b, r;
  acc.encodeProbInto(a, 0.3);
  acc.encodeProbCorrelatedInto(b, 0.8);
  acc.ops().absSubInto(r, a, b);
  EXPECT_EQ(r, sc::scAbsSub(a, b));
  acc.ops().minimumInto(r, a, b);
  EXPECT_EQ(r, sc::scMin(a, b));
  acc.ops().divideInto(r, a, b);
  EXPECT_EQ(r, sc::cordivDivide(a, b, sc::CordivVariant::JkFlipFlop));
}

TEST(Integration, StreamLengthQualitySweep) {
  // Table IV trend: quality improves monotonically (within noise) with N.
  apps::RunConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  double prev = -1.0;
  for (const std::size_t n : {32u, 128u, 512u}) {
    cfg.streamLength = n;
    const apps::Quality q =
        apps::runApp(apps::AppKind::Compositing, apps::DesignKind::ReramSc, cfg);
    EXPECT_GT(q.psnrDb, prev - 1.5) << "N=" << n;  // allow small noise
    prev = q.psnrDb;
  }
}

TEST(Integration, EnduranceAccumulatesAcrossFlow) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 64;
  cfg.device = reram::DeviceParams::ideal();
  core::Accelerator acc(cfg);
  sc::Bitstream s;
  for (int i = 0; i < 10; ++i) acc.encodeProbInto(s, 0.5);
  // Output row absorbed 10 writes; the TRNG planes wear too.
  EXPECT_EQ(acc.array().rowWriteCycles(0), 10u);
  EXPECT_GE(acc.array().rowWriteCycles(1), 10u);
}

TEST(Integration, FaultyFlowStillConverges) {
  apps::RunConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  cfg.streamLength = 64;
  cfg.faults =
      reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice());
  const apps::Quality q =
      apps::runApp(apps::AppKind::Matting, apps::DesignKind::ReramSc, cfg);
  EXPECT_GT(q.ssimPct, 40.0);  // degraded but far from destroyed
}

}  // namespace
}  // namespace aimsc
