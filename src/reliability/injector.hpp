/// \file injector.hpp
/// \brief `FaultedBackend`: the decorator that realises a `FaultPlan`'s
///        stream/word-level fault classes on ANY `ScBackend` substrate.
///
/// Device variability (FaultPlan class 1) is native to the ReRAM-SC and
/// binary CIM substrates — their own `FaultModel` paths sample it.  The
/// remaining classes (stuck-at cells, transient sense-amp flips, wear
/// drift) are substrate-agnostic: they corrupt the VALUES the pipeline
/// produces, so a decorator over the `ScBackend` contract injects them
/// uniformly on all five substrates — including the pure-software SW-SC
/// designs, which otherwise have no fault story at all.
///
/// Injection points: every stage-1 encode output and every stage-2 op
/// result.  Stage-3 decode is left clean — the sense path's misbehaviour is
/// already captured where the value was produced, and corrupting both sides
/// would double-count the same physical fault surface.
///
/// Determinism: each corrupted value opens one fault epoch on the lane's
/// counter-based `FaultRng` (fault_rng.hpp) and draws per bit-site.  The
/// decorator implements only the `*Into` surface (the allocating forms are
/// the base wrappers over it), and the lane-pinned tile schedule makes
/// faulty tiled runs bit-identical at any worker-thread count.
///
/// Value-domain mapping (`Domain`):
///  * `Stream` — SW-SC scalar/SIMD, ReRAM-SC: faults land on stream bit
///    columns; one flip moves the decoded value by 1/N.
///  * `Word` — binary CIM: faults land on the 16 bits of the integer word;
///    one flip moves the value by up to 2^15.  Same per-site rate as the
///    stream substrates = the graceful-degradation comparison.
///  * `Prob` — floating-point reference: the closed-form EXPECTATION of the
///    bit-level channel (p' = p(1-r) + (1-p)r, then the stuck-at mixture),
///    so the reference predicts the mean of the faulty stream designs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "reliability/fault_plan.hpp"
#include "reliability/fault_rng.hpp"

namespace aimsc::reliability {

/// Which physical representation the decorated substrate exposes (decides
/// where a fault site lives — see the file comment).
enum class Domain {
  Stream,  ///< stochastic bit-stream columns
  Word,    ///< binary integer word bits
  Prob,    ///< exact probability (expectation of the bit channel)
};

/// Domain a factory-built substrate takes faults in.
Domain faultDomainFor(core::DesignKind design);

/// Salt folded into the run seed to derive the fault-RNG seed, so fault
/// draws never collide with the substrate's own randomness streams.
constexpr std::uint64_t kFaultSeedSalt = 0xfa0171c7ull;

/// Decorator injecting the stream/word-level classes of a `FaultPlan` into
/// every value an inner backend produces.  Same statefulness rules as any
/// backend: one instance per tile-executor lane.
class FaultedBackend final : public core::ScBackend {
 public:
  /// Wraps \p inner; \p seed / \p lane bind the counter-based fault RNG
  /// (pass the lane's backend seed and its fleet index).
  FaultedBackend(std::unique_ptr<core::ScBackend> inner, Domain domain,
                 const FaultPlan& plan, std::uint64_t seed, std::uint64_t lane);

  const char* name() const override { return inner_->name(); }

  // --- stage 1 --------------------------------------------------------------
  void encodePixelsInto(std::span<const std::uint8_t> values,
                        std::span<core::ScValue> out) override;
  void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                  std::span<core::ScValue> out) override;
  void encodeProbInto(core::ScValue& dst, double p) override;
  void halfStreamInto(core::ScValue& dst) override;
  void encodeCopiesInto(std::uint8_t v, std::span<core::ScValue> out) override;

  // --- stage 2 --------------------------------------------------------------
  void multiplyInto(core::ScValue& dst, const core::ScValue& x,
                    const core::ScValue& y) override;
  void scaledAddInto(core::ScValue& dst, const core::ScValue& x,
                     const core::ScValue& y,
                     const core::ScValue& half) override;
  void addApproxInto(core::ScValue& dst, const core::ScValue& x,
                     const core::ScValue& y) override;
  void absSubInto(core::ScValue& dst, const core::ScValue& x,
                  const core::ScValue& y) override;
  void minimumInto(core::ScValue& dst, const core::ScValue& x,
                   const core::ScValue& y) override;
  void maximumInto(core::ScValue& dst, const core::ScValue& x,
                   const core::ScValue& y) override;
  void majMuxInto(core::ScValue& dst, const core::ScValue& x,
                  const core::ScValue& y, const core::ScValue& sel) override;
  void majMux4Into(core::ScValue& dst, const core::ScValue& i11,
                   const core::ScValue& i12, const core::ScValue& i21,
                   const core::ScValue& i22, const core::ScValue& sx,
                   const core::ScValue& sy) override;
  void divideInto(core::ScValue& dst, const core::ScValue& num,
                  const core::ScValue& den) override;

  // --- stage 3 (clean — see file comment) -----------------------------------
  void decodePixelsInto(std::span<core::ScValue> values,
                        std::span<std::uint8_t> out) override;
  void decodePixelsStoredInto(std::span<core::ScValue> values,
                              std::span<std::uint8_t> out) override;

  // --- accounting (forwarded) -----------------------------------------------
  reram::EventCounts events() const override { return inner_->events(); }
  void resetEvents() override { inner_->resetEvents(); }
  std::uint64_t opCount() const override { return inner_->opCount(); }

  /// The wrapped substrate (tests peek through the decorator).
  const core::ScBackend& inner() const { return *inner_; }
  /// Fault epochs opened so far (one per corrupted value).
  std::uint64_t faultEpochs() const { return rng_.epoch(); }

 protected:
  void doBernsteinSelectInto(
      core::ScValue& dst, std::span<const core::ScValue> xCopies,
      std::span<const core::ScValue> coeffSelects) override;

 private:
  /// Opens one fault epoch and corrupts \p v per the plan and domain.
  void corrupt(core::ScValue& v);
  void corruptBatch(std::span<core::ScValue> batch);
  void corruptStream(sc::Bitstream& s);
  void corruptWord(std::uint32_t& w);
  void corruptProb(double& p);

  /// Current transient flip rate: the base rate plus wear drift.
  double transientRate() const;
  /// Accumulated write cycles for the wear class: ReRAM row writes when the
  /// substrate has an event ledger, its op counter otherwise, and the fault
  /// epoch counter as the last-resort proxy (reference substrate).
  std::uint64_t wearCycles() const;

  /// Lazily built stuck-at mask for stream length \p n (pure function of
  /// (seed, lane, site) — stable for the lane's lifetime).
  void ensureStuckMask(std::size_t n);

  std::unique_ptr<core::ScBackend> inner_;
  Domain domain_;
  FaultPlan plan_;
  FaultRng rng_;

  // Stuck-at masks.  Stream form: packed words, site = bit index; rebuilt
  // only when a different stream length shows up.  Word form: 16-bit masks.
  std::size_t stuckLen_ = 0;
  std::vector<std::uint64_t> stuckMask_;
  std::vector<std::uint64_t> stuckValue_;
  std::uint32_t stuckMaskW_ = 0;
  std::uint32_t stuckValueW_ = 0;
};

/// Wraps \p inner in a `FaultedBackend` when \p plan has stream/word-level
/// classes; returns it untouched otherwise.  \p seed is the lane's backend
/// seed (the fault seed derives from it via `kFaultSeedSalt`).
std::unique_ptr<core::ScBackend> wrapWithFaults(
    std::unique_ptr<core::ScBackend> inner, core::DesignKind design,
    const FaultPlan& plan, std::uint64_t seed, std::uint64_t lane = 0);

}  // namespace aimsc::reliability
