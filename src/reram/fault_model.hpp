/// \file fault_model.hpp
/// \brief CIM misdecision probabilities from device variability (Sec. IV).
///
/// The paper runs the VCM ReRAM model [39] to find the LRS/HRS distributions
/// and from them "the probability of obtaining incorrect outputs in CIM
/// operation"; those failure rates drive the fault injection of Table IV.
/// We reproduce the chain: for each (op, input pattern) the summed bitline
/// current distribution is sampled Monte-Carlo from the log-normal device
/// model, the sense-amp decision is taken, and the misdecision probability
/// is the fraction of samples on the wrong side of the reference(s).
/// Results are cached per pattern; a run with sigma = 0 yields 0 everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "reram/device.hpp"
#include "reram/sense_amp.hpp"

namespace aimsc::reram {

/// Default Monte-Carlo sample count per (op, pattern) entry, shared by every
/// config that builds a model (FaultPlan, AcceleratorConfig,
/// BinaryCimConfig), so a mat gets the same table however it is built.
inline constexpr std::size_t kFaultModelSamples = 40000;

class FaultModel {
 public:
  /// \param params  device parameters (the variability source)
  /// \param samples Monte-Carlo sample count per (op, pattern) entry
  explicit FaultModel(const DeviceParams& params = DeviceParams{},
                      std::uint64_t seed = 0xfa017,
                      std::size_t samples = kFaultModelSamples);

  /// Probability that the SL output for \p op is wrong when \p onesCount of
  /// the \p numRows activated cells on a bitline store '1'.  Thread-safe:
  /// the memo table is mutex-guarded, so one model may be shared across
  /// tile-executor lanes (each entry is computed from its own deterministic
  /// seed, so results never depend on which lane queries first).
  double misdecisionProb(SlOp op, int onesCount, int numRows) const;

  /// Worst case over all input patterns (reported in diagnostics).
  double worstCase(SlOp op, int numRows) const;

  const DeviceParams& params() const { return params_; }

 private:
  double compute(SlOp op, int onesCount, int numRows) const;

  DeviceParams params_;
  std::uint64_t seed_;
  std::size_t samples_;
  mutable std::mutex mutex_;  ///< guards cache_ (lanes may share one model)
  mutable std::map<std::tuple<SlOp, int, int>, double> cache_;
};

}  // namespace aimsc::reram
