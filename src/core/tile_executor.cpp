#include "core/tile_executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/backend_reram.hpp"
#include "reliability/injector.hpp"

namespace aimsc::core {

namespace {

void validate(const ParallelConfig& par) {
  if (par.lanes == 0) throw std::invalid_argument("TileExecutor: zero lanes");
  if (par.rowsPerTile == 0) {
    throw std::invalid_argument("TileExecutor: zero rowsPerTile");
  }
}

MatGroupConfig groupConfigFor(const TileExecutorConfig& cfg) {
  MatGroupConfig gc;
  gc.mats = cfg.lanes;
  gc.mat = cfg.mat;
  return gc;
}

}  // namespace

TileExecutor::TileExecutor(const TileExecutorConfig& config)
    : par_(config) {
  validate(par_);
  group_ = std::make_unique<MatGroup>(groupConfigFor(config));
  backends_.reserve(group_->size());
  for (std::size_t i = 0; i < group_->size(); ++i) {
    // Stream-level fault classes wrap each lane; draws are keyed
    // (mat seed, lane), so the schedule-independence contract extends to
    // faulty runs.
    backends_.push_back(reliability::wrapWithFaults(
        std::make_unique<ReramScBackend>(group_->mat(i)), DesignKind::ReramSc,
        config.faults, config.mat.seed, i));
  }
  makeArenas();
  pool_ = std::make_unique<ThreadPool>(std::min(par_.threads, par_.lanes));
}

TileExecutor::TileExecutor(std::vector<std::unique_ptr<ScBackend>> lanes,
                           const ParallelConfig& par)
    : par_(par), backends_(std::move(lanes)) {
  par_.lanes = backends_.size();
  validate(par_);
  for (const auto& b : backends_) {
    if (b == nullptr) throw std::invalid_argument("TileExecutor: null lane");
  }
  makeArenas();
  pool_ = std::make_unique<ThreadPool>(std::min(par_.threads, par_.lanes));
}

void TileExecutor::makeArenas() {
  arenas_.reserve(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    arenas_.push_back(std::make_unique<StreamArena>());
  }
}

void TileExecutor::adoptArenas(std::vector<std::unique_ptr<StreamArena>> pool) {
  const std::size_t n = std::min(pool.size(), arenas_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (pool[i] == nullptr) continue;
    pool[i]->reset();
    arenas_[i] = std::move(pool[i]);
  }
}

std::vector<std::unique_ptr<StreamArena>> TileExecutor::releaseArenas() {
  std::vector<std::unique_ptr<StreamArena>> pool = std::move(arenas_);
  arenas_.clear();
  makeArenas();
  return pool;
}

Accelerator& TileExecutor::lane(std::size_t i) {
  if (group_ == nullptr) {
    throw std::logic_error("TileExecutor: lane() needs a ReRAM fleet");
  }
  return group_->mat(i);
}

MatGroup& TileExecutor::group() {
  if (group_ == nullptr) {
    throw std::logic_error("TileExecutor: group() needs a ReRAM fleet");
  }
  return *group_;
}

std::vector<std::function<void()>> TileExecutor::buildLaneTasks(
    std::size_t imageHeight,
    std::function<void(std::size_t, std::size_t, std::size_t)> tile) {
  std::vector<std::function<void()>> tasks;
  if (imageHeight == 0) return tasks;
  const std::size_t numTiles =
      (imageHeight + par_.rowsPerTile - 1) / par_.rowsPerTile;

  // The kernel is shared by value across the closures so the task vector
  // stays valid after the caller's kernel object dies (laneTasks callers
  // run the wave later, on their own pool).
  auto shared =
      std::make_shared<std::function<void(std::size_t, std::size_t,
                                          std::size_t)>>(std::move(tile));
  tasks.reserve(backends_.size());
  for (std::size_t laneIdx = 0; laneIdx < backends_.size(); ++laneIdx) {
    if (laneIdx >= numTiles) break;  // more lanes than tiles
    tasks.push_back([this, laneIdx, numTiles, imageHeight, shared] {
      // Ascending tile order per lane: the lane's TRNG/fault/ADC streams
      // advance in a schedule-independent sequence.
      for (std::size_t t = laneIdx; t < numTiles; t += backends_.size()) {
        const std::size_t rowBegin = t * par_.rowsPerTile;
        const std::size_t rowEnd =
            std::min(rowBegin + par_.rowsPerTile, imageHeight);
        (*shared)(laneIdx, rowBegin, rowEnd);
      }
    });
  }
  return tasks;
}

void TileExecutor::runTiles(
    std::size_t imageHeight,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& tile) {
  pool_->run(buildLaneTasks(imageHeight, tile));
}

std::vector<std::function<void()>> TileExecutor::laneTasks(
    std::size_t imageHeight, ArenaTileKernel kernel) {
  return buildLaneTasks(
      imageHeight,
      [this, kernel = std::move(kernel)](std::size_t lane, std::size_t r0,
                                         std::size_t r1) {
        arenas_[lane]->reset();
        kernel(*backends_[lane], *arenas_[lane], r0, r1);
      });
}

void TileExecutor::forEachTile(std::size_t imageHeight,
                               const ArenaTileKernel& kernel) {
  runTiles(imageHeight, [this, &kernel](std::size_t lane, std::size_t r0,
                                        std::size_t r1) {
    // Reset per tile: cursors rewind, capacity stays — the kernel
    // re-acquires the same warm slots in the same order.
    arenas_[lane]->reset();
    kernel(*backends_[lane], *arenas_[lane], r0, r1);
  });
}

void TileExecutor::forEachTile(std::size_t imageHeight,
                               const TileKernel& kernel) {
  if (group_ == nullptr) {
    throw std::logic_error(
        "TileExecutor: Accelerator kernels need a ReRAM fleet");
  }
  runTiles(imageHeight, [this, &kernel](std::size_t lane, std::size_t r0,
                                        std::size_t r1) {
    kernel(group_->mat(lane), r0, r1);
  });
}

reram::EventCounts TileExecutor::totalEvents() const {
  // One path for every fleet: ReRAM lanes forward to their mats, so this
  // equals the MatGroup sum for the default configuration.
  reram::EventCounts total;
  for (const auto& b : backends_) total += b->events();
  return total;
}

std::uint64_t TileExecutor::totalOpCount() const {
  std::uint64_t total = 0;
  for (const auto& b : backends_) total += b->opCount();
  return total;
}

void TileExecutor::resetEvents() {
  for (auto& b : backends_) b->resetEvents();
}

double TileExecutor::estimatedWallClockNs() const {
  return group_ != nullptr ? group_->estimatedWallClockNs() : 0.0;
}

}  // namespace aimsc::core
