// Workload definitions: the three traffic mixes the benchmark drives through
// service::AcceleratorService, their frames (derived from the workload
// seed) and the request/run configurations that address them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "img/image.hpp"
#include "service/accelerator_service.hpp"

namespace perfbench {

using aimsc::apps::AppKind;
using aimsc::core::DesignKind;

/// Fleet shape of every workload (ServiceConfig lanes / rowsPerTile).
constexpr std::size_t kLanes = 4;
constexpr std::size_t kRowsPerTile = 4;

/// One recurring request shape.  The frames are owned here so every client
/// can submit views over them; `seed` drives both the frames (the runner's
/// scene derivation) and the request's substrate randomness.
struct Item {
  AppKind app = AppKind::Gamma;
  DesignKind design = DesignKind::SwScLfsr;
  std::size_t size = 32;
  std::uint64_t seed = 0;
  aimsc::service::TenantId tenant = 0;
  aimsc::reliability::FaultPlan faults{};
  std::size_t replicas = 1;

  aimsc::apps::CompositingScene compositing;
  aimsc::apps::MattingScene matting;
  aimsc::img::Image src;
  std::size_t outWidth = 0;
  std::size_t outHeight = 0;

  std::size_t outPixels() const { return outWidth * outHeight; }
  std::string label() const;
};

/// A named traffic mix plus the service shape it runs on.
struct Workload {
  std::string name;
  std::vector<Item> items;
  std::size_t clients = 1;
  std::size_t workerThreads = 0;
  std::size_t shards = 0;
};

/// Builds \p name's items with frames and request seeds derived from
/// \p seed.  Throws std::invalid_argument for an unknown name.
Workload makeWorkload(const std::string& name, std::uint64_t seed);

/// The service configuration every workload shares (N=256, 4 lanes, 4 rows
/// per tile, batches of up to 8, default flush deadline), sized for \p w.
aimsc::service::ServiceConfig serviceConfigFor(const Workload& w);

/// Lane fleet of the one-shot oracle: the service's lanes and tile height,
/// at least one thread so every design runs on its lane fleet.
aimsc::apps::ParallelConfig oracleParallelFor(const Workload& w);

/// The service request for \p it writing into \p out.
aimsc::service::Request requestFor(const Item& it, aimsc::img::Image& out);

/// The one-shot runner configuration equal to requestFor(it).
aimsc::apps::RunConfig runConfigFor(const Item& it);

/// Substrate family of a design, as the per-layer metric prefixes name it:
/// "sc" (software SC), "reram" (ReRAM-SC), "bincim" (binary CIM) or "ref".
const char* substrateOf(DesignKind design);

/// min(hardware threads, 4), at least 1.
std::size_t defaultWorkerThreads();

}  // namespace perfbench
