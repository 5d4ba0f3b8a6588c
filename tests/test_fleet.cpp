// ReRAM-SC lane fleets from the backend factory: independent lane seeds,
// even work spread, the serial quality class and the wear window reaching
// every mat.
#include <gtest/gtest.h>

#include "apps/compositing.hpp"
#include "apps/runner.hpp"
#include "core/backend_reram.hpp"
#include "core/tile_executor.hpp"
#include "img/metrics.hpp"
#include "img/synth.hpp"
#include "reram/wear.hpp"

namespace aimsc::core {
namespace {

TEST(Fleet, LanesAreIndependentlySeeded) {
  BackendFactoryConfig bc;
  bc.streamLength = 1024;
  const auto lanes = makeBackendLanes(DesignKind::ReramSc, bc, 2);
  EXPECT_NE(lanes[0]->encodeProb(0.5).stream, lanes[1]->encodeProb(0.5).stream);
}

TEST(Fleet, TiledCompositingSpreadsWorkAndKeepsQualityClass) {
  const apps::CompositingScene scene = apps::makeCompositingScene(20, 20, 5);
  const img::Image ref = apps::compositeReference(scene);

  BackendFactoryConfig bc;
  bc.streamLength = 256;
  const auto serial = makeBackend(DesignKind::ReramSc, bc);
  const double psnrSerial =
      img::psnrDb(apps::compositeKernel(scene, *serial), ref);

  // Four lanes, one row per tile: each lane composites a quarter of the 20
  // rows.
  ParallelConfig par;
  par.threads = 0;
  par.rowsPerTile = 1;
  TileExecutor exec(makeBackendLanes(DesignKind::ReramSc, bc, 4), par);
  const img::Image tiled = apps::runTiled(apps::framesOf(scene), exec);
  EXPECT_NEAR(img::psnrDb(tiled, ref), psnrSerial, 3.0);  // same class

  for (std::size_t i = 0; i < exec.lanes(); ++i) {
    EXPECT_NEAR(static_cast<double>(exec.backend(i).events().adcConversions),
                400.0 / 4.0, 1.0);
  }
}

TEST(Fleet, WearWindowReachesEveryLane) {
  // The fleet runApp builds: the wear window travels through
  // backendConfigFor into every lane's mat, so each mat rotates its TRNG
  // planes across both 8-row positions of the 16-row window.
  apps::RunConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.streamLength = 64;
  cfg.wearWindowRows = 16;
  ParallelConfig par;
  par.lanes = 4;
  par.rowsPerTile = 2;
  TileExecutor exec(
      makeBackendLanes(DesignKind::ReramSc, apps::backendConfigFor(cfg),
                       par.lanes),
      par);
  const img::Image src = img::naturalScene(cfg.width, cfg.height, 3);
  apps::runTiled(apps::framesOf(apps::AppKind::Gamma, src), exec);
  for (std::size_t i = 0; i < exec.lanes(); ++i) {
    const reram::CrossbarArray& array =
        dynamic_cast<ReramScBackend&>(exec.backend(i)).accelerator().array();
    EXPECT_GT(array.rowWriteCycles(1), 0u) << "lane " << i;
    EXPECT_GT(array.rowWriteCycles(9), 0u) << "lane " << i;
    EXPECT_LE(reram::WearLeveler::wearSpread(array, 1, 16), 1u) << "lane " << i;
  }
}

}  // namespace
}  // namespace aimsc::core
