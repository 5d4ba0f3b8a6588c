/// \file accounting.hpp
/// \brief Per-tenant ledgers and service-wide batching statistics.
///
/// Every resolved request bills its tenant: request/pixel counts, the
/// backend op count and the merged ReRAM event ledger summed over all its
/// replicas (the same cost surface apps::RunResult reports, so redundancy
/// shows up as an R-fold cost increase on the tenant's bill).  Ledgers are
/// updated at join time under one stats mutex — never on the lane hot path.
#pragma once

#include <cstdint>
#include <vector>

#include "reram/events.hpp"

namespace aimsc::service {

struct TenantLedger {
  std::uint64_t requests = 0;     ///< requests resolved
  std::uint64_t pixels = 0;       ///< output pixels produced
  std::uint64_t replicasRun = 0;  ///< replica executions (>= requests)
  std::uint64_t opCount = 0;      ///< backend ops, summed over replicas
  reram::EventCounts events;      ///< merged ReRAM event ledger

  /// Seed namespace: 0 = identity (request seeds used as-is); any other
  /// value re-keys every request seed through a mix, so two tenants
  /// submitting the same request get independent substrate randomness.
  std::uint64_t seedNamespace = 0;
};

struct ServiceStats {
  std::uint64_t requestsServed = 0;
  /// Admissions: each one takes every queued request that fits the
  /// admission window (ServiceConfig::maxBatch) at once.
  std::uint64_t batches = 0;

  /// batchOccupancy[k] = number of admissions that took exactly k requests
  /// (index 0 unused).
  std::vector<std::uint64_t> batchOccupancy;

  /// Fault-model cache counters (service::FaultModelCache): hits are
  /// requests that skipped the per-mat Monte-Carlo campaign entirely.
  std::uint64_t faultModelCacheHits = 0;
  std::uint64_t faultModelCacheMisses = 0;
  std::size_t faultModelCacheSize = 0;

  /// Shard-fabric resilience counters (docs/SHARDING.md "Failure semantics
  /// & recovery"; all zero on the in-process path).  The shard* counters
  /// snapshot the supervisor's FabricStats; degradedRequests counts
  /// requests that completed on stand-in shards (bytes still identical),
  /// reassignedDispatches the lane slices those stand-ins served.
  std::uint64_t shardRetries = 0;
  std::uint64_t shardRespawns = 0;
  std::uint64_t shardTimeouts = 0;
  std::uint64_t shardGarbageReplies = 0;
  std::uint64_t shardFaultsInjected = 0;
  std::uint64_t deadShards = 0;
  std::uint64_t degradedRequests = 0;
  std::uint64_t reassignedDispatches = 0;

  double meanOccupancy() const {
    std::uint64_t total = 0, weighted = 0;
    for (std::size_t k = 1; k < batchOccupancy.size(); ++k) {
      total += batchOccupancy[k];
      weighted += k * batchOccupancy[k];
    }
    return total == 0 ? 0.0
                      : static_cast<double>(weighted) /
                            static_cast<double>(total);
  }
};

}  // namespace aimsc::service
