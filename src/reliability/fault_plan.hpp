/// \file fault_plan.hpp
/// \brief The unified, sweepable fault-injection contract (`FaultPlan`).
///
/// The Table IV fault study used a single device-corner boolean wired to
/// one ReRAM device corner.  A `FaultPlan` replaces it with four independent
/// fault classes, each with its own rate knob, so the failure space can be
/// swept systematically on EVERY substrate (docs/RELIABILITY.md):
///
///  | class              | mechanism                        | substrates    |
///  |--------------------|----------------------------------|---------------|
///  | device variability | log-normal LRS/HRS overlap ->    | ReRAM-SC,     |
///  |                    | FaultModel misdecisions          | Binary CIM    |
///  | stuck-at cells     | persistent per-lane column/bit   | all (stream   |
///  |                    | mask, value fixed at 0 or 1      | bits / word   |
///  |                    |                                  | bits)         |
///  | transient flips    | per-bit sense-amp/comparator     | all           |
///  |                    | flips at `transientFlipRate`     |               |
///  | wear drift         | flip-rate inflation keyed off    | all (write    |
///  |                    | accumulated write cycles         | cycles / op   |
///  |                    |                                  | count proxy)  |
///
/// Stream substrates (SW-SC scalar/SIMD, ReRAM-SC) take stuck-at and
/// transient faults on stream bit columns; the binary CIM baseline takes
/// them on the bits of its integer words.  The per-site rate is identical,
/// which is exactly the graceful-degradation comparison: an SC flip moves
/// the value by 1/N, a CIM flip by up to half the integer range.
///
/// Injection draws come from the counter-based fault RNG (fault_rng.hpp),
/// so faulty tiled runs stay bit-identical at any worker-thread count.
#pragma once

#include <cstddef>

#include "reram/fault_model.hpp"

namespace aimsc::reliability {

struct FaultPlan {
  // --- class 1: device variability (native ReRAM/CIM fault models) ---------
  /// Enables the Monte-Carlo `FaultModel` misdecision path (scouting logic
  /// on ReRAM-SC, MAGIC gates on binary CIM) for the device corner below.
  bool deviceVariability = false;
  /// Device corner sampled when `deviceVariability` is set.
  reram::DeviceParams device{};
  /// Monte-Carlo resolution per (op, pattern) fault-table entry.
  std::size_t faultModelSamples = reram::kFaultModelSamples;

  // --- class 2: stuck-at cells ----------------------------------------------
  /// Fraction of sites (stream columns / word bits) permanently stuck.
  /// The stuck set is a pure function of (seed, lane, site): stable for the
  /// lane's lifetime, independent across lanes.
  double stuckAtRate = 0.0;
  /// Share of stuck sites stuck at '1' (the rest stick at '0').
  double stuckAtHighFraction = 0.5;

  // --- class 3: transient sense-amp / comparator flips ----------------------
  /// Per-bit flip probability applied to every encoded stream and every
  /// stage-2 op result (per sensed word bit on the binary CIM substrate).
  double transientFlipRate = 0.0;

  // --- class 4: wear-driven drift -------------------------------------------
  /// Extra transient flip rate per million accumulated write cycles of the
  /// lane (ReRAM row writes; backend op count as the proxy elsewhere).
  double wearDriftPerMegaCycle = 0.0;
  /// Simulated prior wear in cycles (endurance sweeps start from aged
  /// devices without replaying their history).
  std::uint64_t wearPreloadCycles = 0;

  /// True when any stream/word-level class is active (the classes realised
  /// by the `FaultedBackend` decorator rather than the native device models).
  bool anyStreamClass() const {
    return stuckAtRate > 0.0 || transientFlipRate > 0.0 ||
           wearDriftPerMegaCycle > 0.0;
  }

  /// True when the plan injects anything at all.
  bool any() const { return deviceVariability || anyStreamClass(); }

  /// The fault-free plan.
  static FaultPlan none() { return FaultPlan{}; }

  /// Device-variability-only plan (Table IV's faulty columns).
  static FaultPlan deviceOnly(const reram::DeviceParams& device,
                              std::size_t samples = reram::kFaultModelSamples) {
    FaultPlan p;
    p.deviceVariability = true;
    p.device = device;
    p.faultModelSamples = samples;
    return p;
  }

  /// Field-wise equality (plans travel on the shard wire; the codec tests
  /// assert decode(encode(p)) == p).
  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

}  // namespace aimsc::reliability
