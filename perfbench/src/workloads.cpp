#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "img/synth.hpp"
#include "reliability/fault_rng.hpp"

namespace perfbench {

namespace aps = aimsc::apps;
namespace svc = aimsc::service;
using aimsc::reliability::FaultPlan;

namespace {

void synthesizeFrames(Item& it) {
  it.outWidth = it.size;
  it.outHeight = it.size;
  switch (it.app) {
    case AppKind::Compositing:
      it.compositing = aps::makeCompositingScene(it.size, it.size, it.seed);
      break;
    case AppKind::Matting:
      it.matting = aps::makeMattingScene(it.size, it.size, it.seed);
      break;
    case AppKind::Bilinear:
      // Same source derivation as the runner (srcImageFor).
      it.src = aimsc::img::naturalScene(it.size, it.size, it.seed ^ 0xb111);
      it.outWidth = it.size * 2;
      it.outHeight = it.size * 2;
      break;
    default:
      it.src = aimsc::img::naturalScene(it.size, it.size, it.seed ^ 0xb111);
      break;
  }
}

FaultPlan tableIvFaults(double sigmaHrsScale = 1.0) {
  aimsc::reram::DeviceParams device = aps::defaultFaultyDevice();
  device.sigmaHrs *= sigmaHrsScale;
  return FaultPlan::deviceOnly(device);
}

/// Collects items; seeds are a pure function of (workload seed, position).
class ItemList {
 public:
  ItemList(Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  Item& add(AppKind app, DesignKind design, std::size_t size,
            svc::TenantId tenant) {
    Item it;
    it.app = app;
    it.design = design;
    it.size = size;
    it.tenant = tenant;
    // Keep seeds in 32 bits: the runner folds them into frame synthesis.
    it.seed = aimsc::reliability::mix64(seed_ * 0x9e3779b97f4a7c15ull +
                                        w_.items.size() + 1) &
              0xffffffffull;
    w_.items.push_back(std::move(it));
    return w_.items.back();
  }

 private:
  Workload& w_;
  std::uint64_t seed_;
};

void smallClean(Workload& w, std::uint64_t seed) {
  w.clients = 4;
  w.workerThreads = defaultWorkerThreads();
  ItemList b(w, seed);
  b.add(AppKind::Filters, DesignKind::SwScSimd, 64, 1);
  b.add(AppKind::Gamma, DesignKind::SwScLfsr, 32, 2);
  b.add(AppKind::Matting, DesignKind::SwScSobol, 32, 3);
  b.add(AppKind::Compositing, DesignKind::ReramSc, 64, 1);
  b.add(AppKind::Morphology, DesignKind::ReramSc, 32, 2);
  b.add(AppKind::Bilinear, DesignKind::SwScSimd, 32, 3);
  b.add(AppKind::Gamma, DesignKind::SwScSfmt, 32, 1);
  b.add(AppKind::Filters, DesignKind::SwScLfsr, 32, 2).replicas = 3;
}

void paperFaulty(Workload& w, std::uint64_t seed) {
  w.clients = 2;
  w.workerThreads = defaultWorkerThreads();
  ItemList b(w, seed);
  b.add(AppKind::Compositing, DesignKind::ReramSc, 64, 1).faults =
      tableIvFaults();
  b.add(AppKind::Compositing, DesignKind::ReramSc, 64, 2).faults =
      tableIvFaults(1.25);
  b.add(AppKind::Compositing, DesignKind::ReramSc, 64, 3);
  b.add(AppKind::Compositing, DesignKind::BinaryCim, 64, 1);
  b.add(AppKind::Compositing, DesignKind::BinaryCim, 32, 2).faults =
      tableIvFaults();
}

/// bench_service's Table IV mix at 64x64.
void shardedMix(Workload& w, std::uint64_t seed) {
  w.clients = 2;
  w.workerThreads = 0;
  w.shards = 4;
  ItemList b(w, seed);
  b.add(AppKind::Compositing, DesignKind::ReramSc, 64, 1).faults =
      tableIvFaults();
  b.add(AppKind::Gamma, DesignKind::SwScLfsr, 64, 2);
  b.add(AppKind::Matting, DesignKind::SwScSobol, 64, 3);
  b.add(AppKind::Filters, DesignKind::SwScSimd, 64, 1);
  b.add(AppKind::Morphology, DesignKind::ReramSc, 64, 2);
  b.add(AppKind::Compositing, DesignKind::ReramSc, 64, 3).faults =
      tableIvFaults(1.25);
  b.add(AppKind::Bilinear, DesignKind::SwScLfsr, 32, 1);
  b.add(AppKind::Filters, DesignKind::SwScLfsr, 64, 2).replicas = 3;
}

}  // namespace

std::string Item::label() const {
  std::string s = aps::appName(app);
  s += " / ";
  s += aimsc::core::designKindName(design);
  const std::string side = std::to_string(size);
  s.append(" ").append(side).append("x").append(side);
  if (faults.deviceVariability) s += " faulty";
  if (replicas > 1) s.append(" x").append(std::to_string(replicas));
  return s;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "small_clean") {
    smallClean(w, seed);
  } else if (name == "paper_faulty") {
    paperFaulty(w, seed);
  } else if (name == "sharded_mix") {
    shardedMix(w, seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (Item& it : w.items) synthesizeFrames(it);
  return w;
}

svc::ServiceConfig serviceConfigFor(const Workload& w) {
  svc::ServiceConfig sc;
  sc.lanes = kLanes;
  sc.rowsPerTile = kRowsPerTile;
  sc.maxBatch = 8;
  sc.workerThreads = w.workerThreads;
  sc.shards = w.shards;
  sc.shardTransport = aimsc::shard::ShardTransportKind::Subprocess;
  return sc;
}

aps::ParallelConfig oracleParallelFor(const Workload& w) {
  aps::ParallelConfig par;
  par.lanes = kLanes;
  par.rowsPerTile = kRowsPerTile;
  par.threads = std::max<std::size_t>(w.workerThreads, 1);
  return par;
}

svc::Request requestFor(const Item& it, aimsc::img::Image& out) {
  svc::Request q;
  q.app = it.app;
  q.design = it.design;
  q.streamLength = 256;
  q.seed = it.seed;
  q.faults = it.faults;
  q.redundancy.replicas = it.replicas;
  switch (it.app) {
    case AppKind::Compositing:
      q.src = it.compositing.background;
      q.aux1 = it.compositing.foreground;
      q.aux2 = it.compositing.alpha;
      break;
    case AppKind::Matting:
      q.src = it.matting.composite;
      q.aux1 = it.matting.background;
      q.aux2 = it.matting.foreground;
      break;
    default:
      q.src = it.src;
      break;
  }
  q.out = out;
  return q;
}

aps::RunConfig runConfigFor(const Item& it) {
  aps::RunConfig cfg;
  cfg.width = it.size;
  cfg.height = it.size;
  cfg.streamLength = 256;
  cfg.seed = it.seed;
  cfg.faults = it.faults;
  cfg.redundancy.replicas = it.replicas;
  return cfg;
}

const char* substrateOf(DesignKind design) {
  switch (design) {
    case DesignKind::ReramSc: return "reram";
    case DesignKind::BinaryCim: return "bincim";
    case DesignKind::Reference: return "ref";
    default: return "sc";
  }
}

std::size_t defaultWorkerThreads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw, 4);
}

}  // namespace perfbench
