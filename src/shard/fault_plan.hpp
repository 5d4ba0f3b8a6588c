/// \file fault_plan.hpp
/// \brief Counter-based chaos injection for the shard fabric.
///
/// A `ShardFaultPlan` decides, per original dispatch, whether that dispatch
/// suffers one of five failures — and WHICH one — as a pure function of
/// `(seed, shard, dispatchIndex, site)`, using the same SplitMix64
/// counter-based draws as `reliability/FaultRng` (fault_rng.hpp).  Two
/// properties follow:
///
///  * **Reproducible chaos** — a chaos run with a given seed injects
///    exactly the same faults at exactly the same dispatches every time,
///    on any machine, so a chaos-suite failure replays deterministically.
///  * **Guaranteed convergence** — the plan is consulted ONLY when the
///    supervisor dispatches a frame to a shard (`ShardSupervisor::start`;
///    a frame moved to a stand-in shard is a new dispatch there), never on
///    retries.  A retry is therefore always fault-free at the injection
///    layer, so bounded retries always reach a clean execution (the worker
///    may still genuinely die — the supervisor handles that too, it just
///    isn't the plan's doing).
///
/// The five sites cover both ends of the channel: the two drop sites are
/// enacted by the supervisor itself (killing the worker before the send /
/// after the send but before the reply), the other three are armed in the
/// worker via a `Misbehave` wire frame and fire on its next Execute.
#pragma once

#include <cstdint>
#include <optional>

#include "reliability/fault_rng.hpp"
#include "shard/wire.hpp"

namespace aimsc::shard {

/// Where along one dispatch a fault strikes.
enum class FaultSite : std::uint8_t {
  DropAtSend = 0,       ///< connection dies before the frame is sent
  CrashBeforeReply = 1, ///< worker executes, then dies without replying
  HangBeforeReply = 2,  ///< worker executes, then wedges (deadline fires)
  GarbageReply = 3,     ///< worker replies with a corrupt frame
  DropAtRecv = 4,       ///< connection dies after send, before the reply
};
constexpr std::size_t kFaultSiteCount = 5;

/// The Misbehave payload for worker-enacted sites; None for the two drop
/// sites (which the supervisor enacts locally).
constexpr WorkerFault workerFaultFor(FaultSite site) {
  switch (site) {
    case FaultSite::CrashBeforeReply: return WorkerFault::CrashBeforeReply;
    case FaultSite::HangBeforeReply: return WorkerFault::HangBeforeReply;
    case FaultSite::GarbageReply: return WorkerFault::GarbageReply;
    case FaultSite::DropAtSend:
    case FaultSite::DropAtRecv: break;
  }
  return WorkerFault::None;
}

/// Per-site injection rates in [0, 1] plus the chaos seed.  All-zero rates
/// (the default) disable injection entirely.
struct ShardFaultPlan {
  std::uint64_t seed = 0;
  double dropAtSend = 0.0;
  double crashBeforeReply = 0.0;
  double hangBeforeReply = 0.0;
  double garbageReply = 0.0;
  double dropAtRecv = 0.0;

  /// A plan with every site firing at \p rate — the chaos suite's blunt
  /// instrument.
  static ShardFaultPlan uniform(std::uint64_t seed, double rate) {
    return ShardFaultPlan{seed, rate, rate, rate, rate, rate};
  }

  double rate(FaultSite site) const {
    switch (site) {
      case FaultSite::DropAtSend: return dropAtSend;
      case FaultSite::CrashBeforeReply: return crashBeforeReply;
      case FaultSite::HangBeforeReply: return hangBeforeReply;
      case FaultSite::GarbageReply: return garbageReply;
      case FaultSite::DropAtRecv: return dropAtRecv;
    }
    return 0.0;
  }

  bool enabled() const {
    return dropAtSend > 0.0 || crashBeforeReply > 0.0 ||
           hangBeforeReply > 0.0 || garbageReply > 0.0 || dropAtRecv > 0.0;
  }

  /// The fault (if any) striking original dispatch \p dispatchIndex on
  /// \p shard.  First firing site wins; each site draws independently at
  /// coordinates (seed, shard, dispatchIndex, site).
  std::optional<FaultSite> faultFor(std::size_t shard,
                                    std::uint64_t dispatchIndex) const {
    if (!enabled()) return std::nullopt;
    for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
      const auto site = static_cast<FaultSite>(s);
      if (reliability::faultSiteBernoulli(seed, shard, dispatchIndex, s,
                                          rate(site))) {
        return site;
      }
    }
    return std::nullopt;
  }
};

}  // namespace aimsc::shard
