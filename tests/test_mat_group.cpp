// Multi-mat orchestration: round-robin lanes, event merging, wall clock.
#include <gtest/gtest.h>

#include "apps/compositing.hpp"
#include "apps/runner.hpp"
#include "core/backend_reram.hpp"
#include "core/mat_group.hpp"
#include "core/tile_executor.hpp"
#include "img/metrics.hpp"

namespace aimsc::core {
namespace {

MatGroupConfig idealGroup(std::size_t mats, std::size_t n = 256) {
  MatGroupConfig cfg;
  cfg.mats = mats;
  cfg.mat.streamLength = n;
  cfg.mat.device = reram::DeviceParams::ideal();
  return cfg;
}

TEST(MatGroup, RoundRobinAssignment) {
  MatGroup group(idealGroup(3));
  EXPECT_EQ(group.size(), 3u);
  EXPECT_EQ(&group.forItem(0), &group.mat(0));
  EXPECT_EQ(&group.forItem(1), &group.mat(1));
  EXPECT_EQ(&group.forItem(2), &group.mat(2));
  EXPECT_EQ(&group.forItem(3), &group.mat(0));
}

TEST(MatGroup, RejectsZeroMats) {
  EXPECT_THROW(MatGroup(idealGroup(0)), std::invalid_argument);
}

TEST(MatGroup, LanesAreIndependentlySeeded) {
  MatGroup group(idealGroup(2, 1024));
  const sc::Bitstream a = group.mat(0).encodeProb(0.5);
  const sc::Bitstream b = group.mat(1).encodeProb(0.5);
  EXPECT_NE(a, b);
}

TEST(MatGroup, EventsMergeAcrossMats) {
  MatGroup group(idealGroup(2));
  group.mat(0).encodeProb(0.5);
  group.mat(1).encodeProb(0.5);
  group.mat(1).encodeProb(0.3);
  const auto total = group.totalEvents();
  EXPECT_EQ(total.slReads, 3u * 40u);
  group.resetEvents();
  EXPECT_EQ(group.totalEvents().slReads, 0u);
}

TEST(MatGroup, WallClockIsSlowstLane) {
  MatGroup group(idealGroup(4));
  // Load one lane more heavily than the others.
  group.mat(0).encodeProb(0.5);
  group.mat(0).encodeProb(0.5);
  group.mat(1).encodeProb(0.5);
  const double wall = group.estimatedWallClockNs();
  // Lane 0 carries 2 conversions (+ commits); the wall clock follows it.
  EXPECT_GT(wall, 2 * 78.2);
  EXPECT_LT(wall, 3 * 78.2 + 3 * 19.83 + 1.0);
}

TEST(MatGroup, ParallelCompositingMatchesQualityClass) {
  const apps::CompositingScene scene = apps::makeCompositingScene(20, 20, 5);
  const img::Image ref = apps::compositeReference(scene);

  AcceleratorConfig single;
  single.streamLength = 256;
  single.device = reram::DeviceParams::ideal();
  Accelerator acc(single);
  ReramScBackend serialBackend(acc);
  const double psnrSingle =
      img::psnrDb(apps::compositeKernel(scene, serialBackend), ref);

  // Four-lane MatGroup fleet behind the tile engine, one row per tile:
  // each lane composites exactly a quarter of the 20 rows.
  TileExecutorConfig cfg;
  cfg.lanes = 4;
  cfg.threads = 0;
  cfg.rowsPerTile = 1;
  cfg.mat = single;
  TileExecutor exec(cfg);
  const img::Image par = apps::runTiled(apps::framesOf(scene), exec);
  const double psnrPar = img::psnrDb(par, ref);
  EXPECT_NEAR(psnrPar, psnrSingle, 3.0);  // same accuracy class

  // Work spread across lanes: every mat decoded a quarter of the pixels.
  for (std::size_t m = 0; m < exec.lanes(); ++m) {
    const auto& ev = exec.lane(m).events();
    EXPECT_NEAR(static_cast<double>(ev.adcConversions), 400.0 / 4.0, 1.0);
  }
  // And the wall clock beats a single-lane estimate by ~the lane count.
  const energy::CostModel model(256);
  const double serial = model.cost(exec.totalEvents()).totalLatencyNs();
  EXPECT_LT(exec.estimatedWallClockNs(), serial / 3.0);
}

}  // namespace
}  // namespace aimsc::core
