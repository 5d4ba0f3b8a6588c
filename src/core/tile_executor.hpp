/// \file tile_executor.hpp
/// \brief Tile-parallel execution engine over ScBackend lanes (paper
///        Sec. III: "we use multiple arrays to parallelize and pipeline the
///        different stages").
///
/// An image is sharded into horizontal row tiles.  Tile t is *pinned* to
/// lane t % lanes, and every lane processes its tiles in ascending tile
/// order inside a single pool task.  Because each lane is an independent
/// backend instance (for ReRAM: its own TRNG, scouting engine, ADC and
/// event log) and its tile sequence is fixed by the pinning rule — never by
/// thread scheduling — the output image and the merged EventCounts are
/// bit-identical for ANY thread count, including the inline (threads = 0)
/// pool.  That determinism contract is what allows the engine to fan out
/// onto however many cores exist without changing results.
///
/// Lanes are ScBackend instances, so the tile-parallel path runs the SAME
/// backend-generic kernels as the serial path — parallelism is a property
/// of the executor, not of the app.  Every fleet, ReRAM-SC included, comes
/// from `makeBackendLanes` (or one `makeBackend` lane).
///
/// Event accounting is lock-free by construction: counters accumulate in
/// per-lane EventLogs that no other thread touches, and totalEvents() sums
/// them after the join barrier.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "core/stream_arena.hpp"
#include "core/thread_pool.hpp"

namespace aimsc::core {

/// Parallel-execution knobs — the single source of truth shared by the tile
/// engine and the app runner (apps::ParallelConfig aliases this struct).
struct ParallelConfig {
  /// Lane count.  Fixed independently of `threads` so results do not depend
  /// on how many OS threads happen to execute the lanes.
  std::size_t lanes = 8;

  /// Worker threads draining the lane queues; 0 = run inline (serial).
  /// Clamped to `lanes` (extra threads would idle).
  std::size_t threads = 0;

  /// Image rows per tile.  Smaller tiles interleave lanes more finely
  /// (better load balance); larger tiles amortize per-tile overhead.
  std::size_t rowsPerTile = 4;
};

class TileExecutor {
 public:
  /// Backend-generic kernel invoked once per tile: \p lane is the backend
  /// pinned to the tile, rows [rowBegin, rowEnd) are the tile's image rows.
  /// Kernels for different tiles of the SAME lane run sequentially in tile
  /// order on one thread; kernels on different lanes may run concurrently
  /// and must only touch disjoint output rows.  \p arena is the lane's
  /// private StreamArena, reset by the executor BEFORE each tile so the
  /// kernel re-acquires the same warm slot set (zero steady-state
  /// allocations; see stream_arena.hpp).  Arena state never carries values
  /// between tiles — only buffer capacity — so the lane-pinned
  /// bit-identical-at-any-thread-count contract is untouched.
  using ArenaTileKernel =
      std::function<void(ScBackend& lane, StreamArena& arena,
                         std::size_t rowBegin, std::size_t rowEnd)>;

  /// Backend lane fleet (each lane independently seeded, e.g. by
  /// `makeBackendLanes`); \p par.lanes is taken from the vector size.
  TileExecutor(std::vector<std::unique_ptr<ScBackend>> lanes,
               const ParallelConfig& par);

  /// Shards [0, imageHeight) into tiles and runs \p kernel over all of them
  /// with the lane-pinned schedule.  Rethrows the first kernel exception
  /// after all lanes have drained.
  void forEachTile(std::size_t imageHeight, const ArenaTileKernel& kernel);

  /// Builds the lane-pinned task closures WITHOUT running them — the
  /// cross-request batching hook.  Each closure is one lane's full tile
  /// sequence (arena reset before every tile, ascending tile order) and is
  /// self-contained: lanes of different executors never share state, so a
  /// caller may run many executors' tasks, interleaved, on one shared pool
  /// (service::AcceleratorService does) and the bits each executor produces
  /// are identical to a private forEachTile run at any thread count.  The
  /// kernel is copied into the closures; the executor must outlive them.
  std::vector<std::function<void()>> laneTasks(std::size_t imageHeight,
                                               ArenaTileKernel kernel);

  std::size_t lanes() const { return backends_.size(); }
  std::size_t threads() const { return pool_->threadCount(); }
  std::size_t rowsPerTile() const { return par_.rowsPerTile; }

  /// Backend lane \p i (any fleet).
  ScBackend& backend(std::size_t i) { return *backends_.at(i); }

  /// Stream arena of lane \p i (any fleet).
  StreamArena& arena(std::size_t i) { return *arenas_.at(i); }

  /// Donates a pre-warmed arena pool: entry i replaces lane i's arena
  /// (reset on adoption — cursors rewind, capacity stays, so donated
  /// buffers are bit-inert warm capacity; see stream_arena.hpp).  Missing
  /// entries keep their fresh arenas; null and surplus entries are dropped.
  /// Shard workers pool arenas across requests so per-request executor
  /// rebuilds stop paying the allocation ramp.
  void adoptArenas(std::vector<std::unique_ptr<StreamArena>> pool);

  /// Surrenders the lane arenas for pooling; fresh empty arenas take their
  /// place so the executor stays usable.
  std::vector<std::unique_ptr<StreamArena>> releaseArenas();

  /// Merged event counts across lanes (sum after join; lock-free).
  reram::EventCounts totalEvents() const;

  /// Backend op count summed across lanes.
  std::uint64_t totalOpCount() const;
  void resetEvents();

 private:
  /// Builds one arena per lane.
  void makeArenas();

  ParallelConfig par_;
  std::vector<std::unique_ptr<ScBackend>> backends_;
  std::vector<std::unique_ptr<StreamArena>> arenas_;  ///< one per lane
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace aimsc::core
