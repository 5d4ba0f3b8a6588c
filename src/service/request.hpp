/// \file request.hpp
/// \brief The service request contract: zero-copy frames in, zero-copy
///        frame out, per-request reliability overrides, per-tenant seed
///        namespacing.
///
/// A request carries *views* over client-owned pixel buffers
/// (`img::ImageView` in, `img::ImageSpan` out) — the daemon never copies a
/// frame on the way into the kernels, and the voted result is written
/// straight into the client's output buffer at join time.  The client
/// guarantees every buffer outlives the ticket.
///
/// Frame roles per app (unused views stay empty):
///
///  | app         | `src`          | `aux1`       | `aux2`       | output        |
///  |-------------|----------------|--------------|--------------|---------------|
///  | Compositing | background     | foreground   | alpha        | composite     |
///  | Matting     | composite (I)  | background   | foreground   | alpha matte   |
///  | Bilinear    | source         | —            | —            | w·f × h·f     |
///  | Filters     | source         | —            | —            | smoothed      |
///  | Gamma       | source         | —            | —            | corrected     |
///  | Morphology  | source         | —            | —            | opened        |
///
/// Determinism contract (tested by tests/test_service.cpp): the output
/// bytes are a pure function of (request fields, tenant seed namespace) —
/// byte-identical whether the request ran solo or batched with strangers,
/// at any worker-thread count, under any tenant interleaving.
#pragma once

#include <cstdint>

#include "apps/runner.hpp"
#include "img/image.hpp"
#include "reliability/fault_plan.hpp"
#include "reliability/redundancy.hpp"

namespace aimsc::service {

/// Tenant identity.  Tenants are implicit — first use creates the ledger;
/// `AcceleratorService::setTenantSeedNamespace` gives a tenant its own seed
/// universe (namespace 0 = identity, i.e. `seed` is used as-is).
using TenantId = std::uint32_t;

struct Request {
  apps::AppKind app = apps::AppKind::Gamma;
  core::DesignKind design = core::DesignKind::SwScLfsr;

  img::ImageView src;   ///< primary frame (see the role table above)
  img::ImageView aux1;  ///< second frame (compositing / matting)
  img::ImageView aux2;  ///< third frame (compositing / matting)

  img::ImageSpan out;  ///< client output buffer, sized per the role table

  double gamma = 2.2;             ///< Gamma app exponent
  std::size_t upscaleFactor = 2;  ///< Bilinear app factor
  std::size_t streamLength = 256;

  /// Request seed inside the tenant's namespace: same (tenant, seed,
  /// fields) -> same output bytes, always.
  std::uint64_t seed = 42;

  /// Per-request reliability overrides (the unified contract of
  /// docs/RELIABILITY.md; default = fault-free, no redundancy).
  reliability::FaultPlan faults{};
  reliability::Redundancy redundancy{};
};

/// Expected output width/height for \p q (throws std::invalid_argument on
/// missing/mismatched input frames — the same checks submit() performs).
struct OutputShape {
  std::size_t width = 0;
  std::size_t height = 0;
};
OutputShape outputShapeFor(const Request& q);

/// Validates frames and the output span; throws std::invalid_argument with
/// a reason.  Called by submit(), exposed for clients that want to check
/// before building a buffer.
void validateRequest(const Request& q);

/// What a resolved ticket returns: the mitigation cost ledgers (summed over
/// all replicas, exactly as apps::runAppDetailed reports them) plus the
/// serving metadata the benches aggregate.
struct RequestResult {
  reram::EventCounts events;
  std::uint64_t opCount = 0;

  double queueMicros = 0;  ///< submit -> admission
  double execMicros = 0;   ///< admission -> this request's own resolution
  std::size_t batchSize = 1;  ///< requests admitted together with this one

  /// True when some lane slice ran on a stand-in shard because its owner
  /// was dead (shard fabric only).  The output bytes are identical either
  /// way — degraded mode is a capacity statement, not a quality one.
  bool degraded = false;
};

}  // namespace aimsc::service
