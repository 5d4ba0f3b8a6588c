#include "core/tile_executor.hpp"

#include <algorithm>
#include <stdexcept>

namespace aimsc::core {

namespace {

void validate(const ParallelConfig& par) {
  if (par.lanes == 0) throw std::invalid_argument("TileExecutor: zero lanes");
  if (par.rowsPerTile == 0) {
    throw std::invalid_argument("TileExecutor: zero rowsPerTile");
  }
}

}  // namespace

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

std::vector<std::function<void()>> TileExecutor::laneTasks(
    std::size_t imageHeight, ArenaTileKernel kernel) {
  std::vector<std::function<void()>> tasks;
  if (imageHeight == 0) return tasks;
  const std::size_t numTiles =
      (imageHeight + par_.rowsPerTile - 1) / par_.rowsPerTile;

  // The kernel is shared by value across the closures so the task vector
  // stays valid after the caller's kernel object dies (laneTasks callers
  // run the wave later, on their own pool).
  auto shared = std::make_shared<const ArenaTileKernel>(std::move(kernel));
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
        // Reset per tile: cursors rewind, capacity stays — the kernel
        // re-acquires the same warm slots in the same order.
        arenas_[laneIdx]->reset();
        (*shared)(*backends_[laneIdx], *arenas_[laneIdx], rowBegin, rowEnd);
      }
    });
  }
  return tasks;
}

void TileExecutor::forEachTile(std::size_t imageHeight,
                               const ArenaTileKernel& kernel) {
  pool_->run(laneTasks(imageHeight, kernel));
}

reram::EventCounts TileExecutor::totalEvents() const {
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

}  // namespace aimsc::core
