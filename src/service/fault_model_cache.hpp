/// \file fault_model_cache.hpp
/// \brief Memoized misdecision tables — the daemon's warm-state win.
///
/// A ReRAM mat's or binary-CIM engine's `reram::FaultModel` is a pure
/// function of its constructor triple (device params, seed, samples): every
/// table entry is Monte-Carlo sampled from a seed derived deterministically
/// from that triple and the query pattern.  One-shot `apps::runApp`
/// therefore re-pays the full Monte-Carlo campaign on EVERY call with a
/// device-variability FaultPlan (~75x the fault-free kernel cost at 64x64,
/// see BENCH_service.json); a persistent service can keep the tables.
///
/// The cache memoizes whole models by their constructor triple and hands
/// them out through the `core::FaultModelProvider` hook.  Because a hit
/// returns a model built from exactly the arguments the substrate would
/// have used itself, cached runs are bit-identical to cold runs — the
/// request seed still namespaces the tables, tenants with different seeds
/// or device corners get distinct entries, and `FaultModel`'s internal memo
/// table is mutex-guarded so concurrent lanes may query one model safely.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "core/backend.hpp"
#include "reram/device.hpp"
#include "reram/fault_model.hpp"

namespace aimsc::service {

class FaultModelCache {
 public:
  /// The memoized equivalent of `new FaultModel(device, seed, samples)`.
  std::shared_ptr<const reram::FaultModel> get(
      const reram::DeviceParams& device, std::uint64_t seed,
      std::size_t samples);

  /// Provider bound to this cache (for the `faultModelProvider` of
  /// AcceleratorConfig, BinaryCimConfig and BackendFactoryConfig).
  /// The cache must outlive every executor built with the provider.
  core::FaultModelProvider provider();

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t size() const;

 private:
  // Every field that changes the Monte-Carlo outcome is part of the key.
  using Key = std::tuple<double, double, double, double, double,
                         std::uint64_t, std::uint64_t, std::size_t>;
  static Key keyFor(const reram::DeviceParams& device, std::uint64_t seed,
                    std::size_t samples);

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const reram::FaultModel>> models_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace aimsc::service
