#include "replay.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>

#include "core/tile_executor.hpp"
#include "energy/cost_model.hpp"
#include "reliability/redundancy.hpp"

namespace perfbench {

namespace svc = aimsc::service;
using aimsc::core::TileExecutor;

double WaveStats::maxLaneMs() const {
  return laneMs.empty() ? 0.0 : *std::max_element(laneMs.begin(), laneMs.end());
}

double WaveStats::meanLaneMs() const {
  if (laneMs.empty()) return 0.0;
  return std::accumulate(laneMs.begin(), laneMs.end(), 0.0) /
         static_cast<double>(laneMs.size());
}

namespace {

/// Runs \p tasks as one pool wave, timing the wave and each lane closure.
WaveStats runWave(std::vector<std::function<void()>> tasks,
                  aimsc::core::ThreadPool& pool, SpanRecorder& rec,
                  const char* name, std::int64_t parent,
                  std::uint64_t requestId) {
  WaveStats w;
  w.laneMs.assign(tasks.size(), 0.0);
  const std::int64_t span = rec.begin(name, parent, requestId);
  std::vector<std::function<void()>> timed;
  timed.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    timed.push_back([&, i, task = std::move(tasks[i])] {
      const Clock::time_point t0 = Clock::now();
      task();
      const Clock::time_point t1 = Clock::now();
      w.laneMs[i] = msBetween(t0, t1);
      rec.add("core.lane", t0, t1, span, requestId);
    });
  }
  const Clock::time_point t0 = Clock::now();
  pool.run(std::move(timed));
  w.wallMs = msBetween(t0, Clock::now());
  rec.end(span);
  return w;
}

/// One replica's fleet: the executor the service would build, plus the
/// decorated executor the lane tasks actually run on.
struct ReplicaFleet {
  std::unique_ptr<TileExecutor> built;
  std::vector<SampledBackend*> decorators;
  std::unique_ptr<TileExecutor> profiled;
  aimsc::img::Image out;
  aimsc::img::Image morphTmp;
};

}  // namespace

ReplayResult replayRequest(const svc::Request& q, const svc::ExecShape& shape,
                           svc::FaultModelCache& cache,
                           aimsc::core::ThreadPool& pool, SpanRecorder& rec,
                           std::uint64_t requestId,
                           std::uint32_t sampleEvery) {
  ReplayResult res;
  const Clock::time_point start = Clock::now();
  const std::int64_t root = rec.begin("replay.request", -1, requestId);
  const svc::OutputShape os = svc::outputShapeFor(q);
  const bool morph = q.app == aimsc::apps::AppKind::Morphology;
  const std::size_t replicas = std::max<std::size_t>(q.redundancy.replicas, 1);

  std::vector<ReplicaFleet> fleets(replicas);
  std::vector<std::function<void()>> wave0;
  for (std::size_t r = 0; r < replicas; ++r) {
    ReplicaFleet& f = fleets[r];
    const Clock::time_point b0 = Clock::now();
    const std::int64_t span = rec.begin("core.fleet_build", root, requestId);
    f.built = svc::makeRequestExecutor(
        shape, q, aimsc::reliability::replicaSeed(q.seed, r), cache);
    rec.end(span);
    res.fleetBuildMs.push_back(msBetween(b0, Clock::now()));

    std::vector<std::unique_ptr<aimsc::core::ScBackend>> lanes;
    for (std::size_t i = 0; i < f.built->lanes(); ++i) {
      auto d = std::make_unique<SampledBackend>(f.built->backend(i),
                                                sampleEvery);
      f.decorators.push_back(d.get());
      lanes.push_back(std::move(d));
    }
    aimsc::core::ParallelConfig par;
    par.lanes = lanes.size();
    par.threads = 0;
    par.rowsPerTile = shape.rowsPerTile;
    f.profiled = std::make_unique<TileExecutor>(std::move(lanes), par);

    if (morph) {
      f.morphTmp = svc::makeStage0Staging(q, os);
      f.out = aimsc::img::Image(os.width, os.height);
    } else {
      f.out = svc::makeStage0Staging(q, os);
    }
    aimsc::img::Image& stage0Out = morph ? f.morphTmp : f.out;
    for (auto& t : f.profiled->laneTasks(stage0Out.height(),
                                         svc::stage0Kernel(q, stage0Out))) {
      wave0.push_back(std::move(t));
    }
  }
  res.stage0.push_back(
      runWave(std::move(wave0), pool, rec, "apps.stage0", root, requestId));

  if (morph) {
    std::vector<std::function<void()>> wave1;
    for (ReplicaFleet& f : fleets) {
      f.out.pixels() = f.morphTmp.pixels();
      for (auto& t : f.profiled->laneTasks(
               f.out.height(), svc::stage1Kernel(f.morphTmp, f.out))) {
        wave1.push_back(std::move(t));
      }
    }
    res.stage1.push_back(
        runWave(std::move(wave1), pool, rec, "apps.stage1", root, requestId));
  }

  std::vector<std::vector<std::uint8_t>> outputs;
  for (ReplicaFleet& f : fleets) outputs.push_back(std::move(f.out.pixels()));
  if (outputs.size() == 1) {
    res.pixels = std::move(outputs.front());
  } else {
    const Clock::time_point v0 = Clock::now();
    const std::int64_t span = rec.begin("reliability.vote", root, requestId);
    res.pixels = aimsc::reliability::voteImages(
        outputs, aimsc::reliability::resolveVote(q.redundancy.vote, q.design));
    rec.end(span);
    res.voteMs = msBetween(v0, Clock::now());
  }

  for (ReplicaFleet& f : fleets) {
    res.events += f.built->totalEvents();
    for (std::size_t i = 0; i < f.built->lanes(); ++i) {
      res.opCount += f.built->backend(i).opCount();
    }
    for (const SampledBackend* d : f.decorators) res.substrate += d->times();
  }

  const Clock::time_point c0 = Clock::now();
  const std::int64_t span = rec.begin("energy.cost_model", root, requestId);
  const aimsc::energy::CostBreakdown cost =
      aimsc::energy::CostModel(q.streamLength, true).cost(res.events);
  rec.end(span);
  res.costModelMs = msBetween(c0, Clock::now());
  res.simEnergyNJ = cost.totalEnergyNJ();
  res.simLatencyNs = cost.totalLatencyNs();

  rec.end(root);
  res.totalMs = msBetween(start, Clock::now());
  return res;
}

}  // namespace perfbench
