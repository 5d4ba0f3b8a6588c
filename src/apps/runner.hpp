/// \file runner.hpp
/// \brief Unified application harness for Table IV and Figs. 4/5: one entry
///        point, `runApp(app, design, ...)`, dispatches any application
///        kernel onto any execution backend and scores it against the
///        floating-point reference.
///
/// Table IV protocol: compositing, bilinear interpolation and filters are
/// compared directly against the reference output; matting is compared on
/// the *re-blended* composite (blend with estimated alpha vs blend with the
/// original alpha).
#pragma once

#include <cstdint>
#include <string_view>

#include "apps/bilinear.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/matting.hpp"
#include "apps/morphology.hpp"
#include "apps/schedule.hpp"
#include "core/backend.hpp"
#include "core/tile_executor.hpp"
#include "energy/system_model.hpp"
#include "reliability/redundancy.hpp"

namespace aimsc::apps {

const char* appName(AppKind app);

/// Inverse of `appName`: parses an app selector from CLI/args.  Matching is
/// case-insensitive, ignores punctuation and accepts the short alias
/// ("matting" for "Image Matting").  Throws std::invalid_argument (listing
/// the valid names) on no match.
AppKind parseAppKind(std::string_view name);

/// Execution substrate selector (re-exported from core for callers).
using core::DesignKind;

struct Quality {
  double ssimPct = 0;  ///< mean SSIM * 100
  double psnrDb = 0;
};

Quality compareQuality(const img::Image& test, const img::Image& ref);

struct RunConfig {
  std::size_t width = 48;
  std::size_t height = 48;
  std::size_t streamLength = 256;  ///< N

  /// The unified fault contract (docs/RELIABILITY.md): all four fault
  /// classes, on every substrate.  Table IV's faulty columns are
  /// `FaultPlan::deviceOnly(defaultFaultyDevice())`.
  reliability::FaultPlan faults{};

  /// N-modular redundancy: replicas > 1 runs the app that many times on
  /// independently re-seeded replicas and majority-votes the outputs
  /// per pixel (replica 0 keeps `seed`, so replicas = 1 is bit-identical
  /// to the unmitigated path).
  reliability::Redundancy redundancy{};

  /// Gate-level retry-and-vote for the binary CIM MAGIC ledger (the
  /// op-level mitigation knob; orthogonal to image-level redundancy).
  core::CimProtection bincimProtection = core::CimProtection::None;

  /// Wear-leveling window for the ReRAM-SC TRNG plane region (rows);
  /// 0 = fixed plane rows.  See ImsngConfig::wearWindowRows.
  std::size_t wearWindowRows = 0;

  std::size_t upscaleFactor = 2;
  std::uint64_t seed = 42;
};

/// Device corner used for the Table IV fault studies: HRS-instability
/// dominated overlap ([39]) yielding per-gate misdecision rates in the
/// 1e-4..1e-2 range depending on the op and pattern.
reram::DeviceParams defaultFaultyDevice();

/// Tile engine knobs for the parallel runs (alias of the core struct — one
/// source of truth for lanes/threads/rowsPerTile).
using ParallelConfig = core::ParallelConfig;

/// Everything a reliability campaign needs from one (app, design) run:
/// the Table IV score, the raw output image (the voted image under
/// redundancy; matting returns the alpha matte), and the mitigation cost —
/// events and backend op count SUMMED over all replicas, so the redundancy
/// overhead is visible as an R-fold cost increase.
struct RunResult {
  Quality quality;
  img::Image output;
  reram::EventCounts events;
  std::uint64_t opCount = 0;
};

/// Runs one (app, design) pair through the app's stage schedule
/// (schedule.hpp) on a `TileExecutor` and returns quality vs the Table IV
/// reference.  The fleet is `makeBackendLanes(design, backendConfigFor(cfg),
/// par.lanes)` with the replica seed as its master seed.  ReRAM-SC always
/// tiles that fleet; every other design tiles it when `par.threads > 0`,
/// and when `par.threads == 0` (the default) runs on a one-lane
/// `makeBackend` fleet whose backend takes the replica seed itself.
/// Tiled results are bit-identical for any nonzero `threads` given fixed
/// `lanes`/`rowsPerTile` (lane-pinned schedule; see docs/ARCHITECTURE.md) —
/// including under fault injection (counter-based fault RNG) and
/// redundancy (replicas run sequentially in replica order).
Quality runApp(AppKind app, DesignKind design, const RunConfig& cfg,
               const ParallelConfig& par = ParallelConfig{});

/// `runApp` with the output image and cost ledgers (reliability campaigns).
RunResult runAppDetailed(AppKind app, DesignKind design, const RunConfig& cfg,
                         const ParallelConfig& par = ParallelConfig{});

/// Backend factory knobs derived from a run configuration (the wear window
/// included): the configuration every `runApp` fleet is built from.
core::BackendFactoryConfig backendConfigFor(const RunConfig& cfg);

/// Per-element workload profile feeding the Fig. 4/5 system model.
energy::AppProfile profileFor(AppKind app);

}  // namespace aimsc::apps
