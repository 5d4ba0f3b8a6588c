/// \file backend_reram.hpp
/// \brief ScBackend over the all-in-memory accelerator — this work's design
///        (IMSNG B-to-S, scouting-logic arithmetic, ADC S-to-B).
///
/// A thin adapter over the mat it owns: every call maps 1:1 onto the
/// Accelerator's destination-passing forms, so a row-batched kernel running
/// through this backend issues exactly the call sequence the former
/// hand-written TILED ReRAM variants issued — which is what makes the
/// generic tiled paths bit-identical to the pre-redesign outputs
/// (tests/test_backend.cpp).  The former *serial* per-app functions used
/// per-pixel randomness epochs; their shims now share the row-batched
/// kernel (same quality class, different bits — see README migration notes).
#pragma once

#include "core/accelerator.hpp"
#include "core/backend.hpp"

namespace aimsc::core {

class ReramScBackend final : public ScBackend {
 public:
  /// Builds the mat from its configuration.
  explicit ReramScBackend(const AcceleratorConfig& config) : acc_(config) {}

  const char* name() const override { return "ReRAM-SC"; }

  // Encode through the IMSNG Into paths, stage-2 through the ScoutingLogic
  // Into ops, decode through the per-stream ADC — zero steady-state heap
  // traffic at any sensing fidelity.
  void encodePixelsInto(std::span<const std::uint8_t> values,
                        std::span<ScValue> out) override;
  void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                  std::span<ScValue> out) override;
  void encodeProbInto(ScValue& dst, double p) override;
  void halfStreamInto(ScValue& dst) override;
  void multiplyInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void scaledAddInto(ScValue& dst, const ScValue& x, const ScValue& y,
                     const ScValue& half) override;
  void addApproxInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void absSubInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void minimumInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void maximumInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void majMuxInto(ScValue& dst, const ScValue& x, const ScValue& y,
                  const ScValue& sel) override;
  void majMux4Into(ScValue& dst, const ScValue& i11, const ScValue& i12,
                   const ScValue& i21, const ScValue& i22, const ScValue& sx,
                   const ScValue& sy) override;
  void divideInto(ScValue& dst, const ScValue& num, const ScValue& den) override;
  void decodePixelsInto(std::span<ScValue> values,
                        std::span<std::uint8_t> out) override;
  void decodePixelsStoredInto(std::span<ScValue> values,
                              std::span<std::uint8_t> out) override;

  reram::EventCounts events() const override { return acc_.events(); }
  void resetEvents() override { acc_.resetEvents(); }

  /// The mat behind this backend (its array, encodes and scalar decodes).
  Accelerator& accelerator() { return acc_; }

 protected:
  void doBernsteinSelectInto(ScValue& dst, std::span<const ScValue> xCopies,
                             std::span<const ScValue> coeffSelects) override;

 private:
  Accelerator acc_;
  // Borrowed-pointer staging for the batched Into encode and the per-pixel
  // Bernstein network (reused across rows; a backend is single-threaded).
  std::vector<sc::Bitstream*> outPtrScratch_;
  std::vector<const sc::Bitstream*> copyPtrScratch_;
  std::vector<const sc::Bitstream*> coeffPtrScratch_;
};

}  // namespace aimsc::core
