// Cost model calibration: the event->cost mapping must reproduce the
// paper's own published numbers (Table III, IMSNG-naive/opt).
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "energy/calibration.hpp"
#include "energy/cmos_baseline.hpp"
#include "energy/area.hpp"
#include "energy/cost_model.hpp"
#include "energy/report.hpp"
#include "energy/system_model.hpp"

namespace aimsc::energy {
namespace {

core::AcceleratorConfig tableIIIConfig() {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.device = reram::DeviceParams::ideal();
  cfg.commitSbs = false;  // Table III reports the conversion logic alone
  return cfg;
}

TEST(Calibration, ImsngOptMatchesPaper) {
  // Paper Sec. IV-B: IMSNG-opt completes a conversion in 78.2 ns / 3.42 nJ.
  core::Accelerator acc(tableIIIConfig());
  sc::Bitstream s;
  acc.encodeProbInto(s, 0.5);  // prime planes
  acc.resetEvents();
  acc.encodeProbCorrelatedInto(s, 0.5);
  const CostModel model(256);
  const CostBreakdown cost = model.cost(acc.events());
  EXPECT_NEAR(cost.totalLatencyNs(), 78.2, 0.1);
  EXPECT_NEAR(cost.totalEnergyNJ(), 3.42, 0.02);
}

TEST(Calibration, ImsngNaiveMatchesPaper) {
  // IMSNG-naive: 395.4 ns and 10.23 nJ per conversion.
  core::AcceleratorConfig cfg = tableIIIConfig();
  cfg.imsngVariant = core::ImsngConfig::Variant::Naive;
  core::Accelerator acc(cfg);
  sc::Bitstream s;
  acc.encodeProbInto(s, 0.5);
  acc.resetEvents();
  acc.encodeProbCorrelatedInto(s, 0.5);
  const CostModel model(256);
  const CostBreakdown cost = model.cost(acc.events());
  EXPECT_NEAR(cost.totalLatencyNs(), 395.4, 0.5);
  EXPECT_NEAR(cost.totalEnergyNJ(), 10.23, 0.05);
}

TEST(Calibration, TableIIIMultiplicationRow) {
  // ReRAM multiplication: 80.8 ns / 3.50 nJ (conversion + one AND cycle).
  core::Accelerator acc(tableIIIConfig());
  sc::Bitstream y;
  sc::Bitstream x;
  sc::Bitstream out;
  acc.encodeProbInto(y, 0.5);
  acc.resetEvents();
  acc.encodeProbCorrelatedInto(x, 0.6);
  acc.ops().multiplyInto(out, x, y);
  const CostBreakdown cost = CostModel(256).cost(acc.events());
  EXPECT_NEAR(cost.totalLatencyNs(), 80.8, 0.3);
  EXPECT_NEAR(cost.totalEnergyNJ(), 3.50, 0.02);
}

TEST(Calibration, TableIIISubtractionRow) {
  // ReRAM subtraction: 81.6 ns / 3.51 nJ (XOR window op: two latches).
  core::Accelerator acc(tableIIIConfig());
  sc::Bitstream y;
  sc::Bitstream x;
  sc::Bitstream out;
  acc.encodeProbInto(y, 0.5);
  acc.resetEvents();
  acc.encodeProbCorrelatedInto(x, 0.6);
  acc.ops().absSubInto(out, x, y);
  const CostBreakdown cost = CostModel(256).cost(acc.events());
  EXPECT_NEAR(cost.totalLatencyNs(), 81.6, 0.3);
  EXPECT_NEAR(cost.totalEnergyNJ(), 3.51, 0.02);
}

TEST(Calibration, TableIIIDivisionRow) {
  // ReRAM division: 12544 ns / 4.48 nJ (serial CORDIV, N = 256).
  core::Accelerator acc(tableIIIConfig());
  sc::Bitstream y;
  sc::Bitstream x;
  sc::Bitstream out;
  acc.encodeProbInto(y, 0.8);
  acc.resetEvents();
  acc.encodeProbCorrelatedInto(x, 0.4);
  acc.ops().divideInto(out, x, y);
  const CostBreakdown cost = CostModel(256).cost(acc.events());
  EXPECT_NEAR(cost.totalLatencyNs(), 12544.0, 15.0);
  EXPECT_NEAR(cost.totalEnergyNJ(), 4.48, 0.03);
}

TEST(CostModel, EnergyScalesWithStreamLength) {
  reram::EventCounts ev;
  ev.slReads = 40;
  const double e256 = CostModel(256).cost(ev).totalEnergyNJ();
  const double e32 = CostModel(32).cost(ev).totalEnergyNJ();
  EXPECT_NEAR(e32, e256 / 8.0, 1e-9);
  // Latency does not scale with width (parallel bitlines).
  EXPECT_DOUBLE_EQ(CostModel(32).cost(ev).totalLatencyNs(),
                   CostModel(256).cost(ev).totalLatencyNs());
}

TEST(CostModel, TrngChargedOnlyWhenEnabled) {
  reram::EventCounts ev;
  ev.trngBits = 2048;
  EXPECT_DOUBLE_EQ(CostModel(256, false).cost(ev).totalEnergyNJ(), 0.0);
  EXPECT_GT(CostModel(256, true).cost(ev).totalEnergyNJ(), 0.0);
}

TEST(CmosBaseline, TableIIIRowsAt256) {
  EXPECT_DOUBLE_EQ(cmosScCost(CmosSng::Lfsr, ScOpKind::Multiplication, 256).latencyNs,
                   122.88);
  EXPECT_DOUBLE_EQ(cmosScCost(CmosSng::Lfsr, ScOpKind::Multiplication, 256).energyNJ,
                   0.23);
  EXPECT_DOUBLE_EQ(cmosScCost(CmosSng::Sobol, ScOpKind::Division, 256).latencyNs,
                   130.56);
  EXPECT_DOUBLE_EQ(cmosScCost(CmosSng::Sobol, ScOpKind::AbsSubtraction, 256).energyNJ,
                   0.12);
}

TEST(CmosBaseline, ScalesLinearlyInN) {
  const CmosCost c64 = cmosScCost(CmosSng::Lfsr, ScOpKind::Multiplication, 64);
  EXPECT_DOUBLE_EQ(c64.latencyNs, 122.88 / 4);
  EXPECT_DOUBLE_EQ(c64.energyNJ, 0.23 / 4);
}

TEST(CmosBaseline, CriticalPathSubNanosecond) {
  for (const auto op : {ScOpKind::Multiplication, ScOpKind::Division}) {
    const double cp = cmosCriticalPathNs(CmosSng::Lfsr, op);
    EXPECT_GT(cp, 0.3);
    EXPECT_LT(cp, 0.6);
  }
}

TEST(SystemModel, ReramWinsAtShortStreams) {
  AppProfile p;
  p.name = "test";
  p.conversionsPerElement = 3;
  p.bulkOpsPerElement = 1;
  p.sbsWritesPerElement = 3;
  p.cmosOpClass = ScOpKind::ScaledAddition;
  p.ioBytesPerElement = 4;
  p.bincimGateOps = 1800;
  const double r32 = evaluateSystem(Design::ReramSc, p, 32).energyPerElemNJ;
  const double c32 = evaluateSystem(Design::CmosScLfsr, p, 32).energyPerElemNJ;
  EXPECT_LT(r32, c32);
  // ...and loses at N = 256 (the paper's crossover).
  const double r256 = evaluateSystem(Design::ReramSc, p, 256).energyPerElemNJ;
  const double c256 = evaluateSystem(Design::CmosScLfsr, p, 256).energyPerElemNJ;
  EXPECT_GT(r256, c256);
}

TEST(SystemModel, BinaryCimIsNIndependent) {
  AppProfile p;
  p.bincimGateOps = 1000;
  EXPECT_DOUBLE_EQ(evaluateSystem(Design::BinaryCim, p, 32).energyPerElemNJ,
                   evaluateSystem(Design::BinaryCim, p, 256).energyPerElemNJ);
}

TEST(SystemModel, NormalizationReferenceIsOne) {
  AppProfile p;
  p.bincimGateOps = 1000;
  p.conversionsPerElement = 2;
  EXPECT_DOUBLE_EQ(energySavings(Design::BinaryCim, p, 64), 1.0);
  EXPECT_DOUBLE_EQ(throughputImprovement(Design::BinaryCim, p, 64), 1.0);
}

TEST(Area, SngDominatesCmosLaneArea) {
  // Paper Sec. I: CMOS bit-stream generation consumes up to ~80% of the
  // hardware cost; Sobol generators push the share even higher [8][9].
  const auto lfsr = cmosScArea(CmosSng::Lfsr, ScOpKind::Multiplication, 256);
  EXPECT_GT(lfsr.sngShare(), 0.6);
  EXPECT_LT(lfsr.sngShare(), 0.9);
  const auto sobol = cmosScArea(CmosSng::Sobol, ScOpKind::Multiplication, 256);
  EXPECT_GT(sobol.sngShare(), lfsr.sngShare());
}

TEST(Area, CounterGrowsWithStreamLength) {
  const auto n256 = cmosScArea(CmosSng::Lfsr, ScOpKind::Multiplication, 256);
  const auto n32 = cmosScArea(CmosSng::Lfsr, ScOpKind::Multiplication, 32);
  EXPECT_GT(n256.counterGe, n32.counterGe);
}

TEST(Area, DivisionLaneIncludesFlipFlop) {
  const auto div = cmosScArea(CmosSng::Lfsr, ScOpKind::Division, 256);
  const auto mul = cmosScArea(CmosSng::Lfsr, ScOpKind::Multiplication, 256);
  EXPECT_GT(div.logicGe, mul.logicGe);
}

TEST(Area, ReramScSpecificAdditionsAreSmall) {
  // "Minimal changes to the memory periphery": SC-specific additions
  // (extra SA references + feedback drivers) are ~11% of a baseline mat;
  // the ADC dominates the remainder but is common CIM equipment [37].
  const auto r = reramPeripheryArea(256);
  const double scSpecific = r.extraSaRefsGe + r.feedbackGe;
  EXPECT_LT(scSpecific / r.baselineMatGe, 0.15);
  EXPECT_GT(r.adcGe, scSpecific);
}

TEST(Report, TableFormatting) {
  Table t({"a", "bb"});
  t.addRow({"1", "2"});
  t.addRule();
  t.addRow({"333"});
  const std::string s = t.toString();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmtMsePercent(0.0001), "1.00e-04");
  EXPECT_EQ(fmtMsePercent(0.5), "0.500");
}

}  // namespace
}  // namespace aimsc::energy
