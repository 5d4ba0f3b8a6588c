/// \file backend_bincim.hpp
/// \brief ScBackend over the binary CIM baseline: AritPIM-style bit-serial
///        integer arithmetic on MAGIC gates, with gate-level fault
///        injection (paper Sec. IV-C, Table IV, Figs. 4/5).
///
/// Values are 8/16-bit integer words; each op is the exact gate sequence
/// the former hand-written binary-CIM app variants issued (operand order
/// included), so fault-free results — and, for the kernels that share an
/// op decomposition, the gate-op ledger — are bit-identical to the legacy
/// functions.
#pragma once

#include <memory>

#include "bincim/aritpim.hpp"
#include "core/backend.hpp"
#include "reram/fault_model.hpp"

namespace aimsc::core {

/// Equal-fault-surface scale of every binary-CIM engine's misdecision
/// probabilities: the pedagogical gate decomposition issues ~4x the cycles
/// of an optimized AritPIM mapping (see MagicEngine).
inline constexpr double kBinaryCimFaultScale = 0.25;

struct BinaryCimConfig {
  std::uint64_t seed = 0x5eed;
  bool deviceVariability = false;
  reram::DeviceParams device{};
  std::size_t faultModelSamples = reram::kFaultModelSamples;
  /// Gate-level temporal redundancy (retry-and-vote; see MagicEngine).
  bincim::MagicEngine::Protection protection =
      bincim::MagicEngine::Protection::None;
  /// Optional memoizing source of the engine's misdecision table, called
  /// with (device, seed ^ 0xb1f, faultModelSamples); empty = build it here.
  FaultModelProvider faultModelProvider;
};

class BinaryCimBackend final : public ScBackend {
 public:
  /// Non-owning wrap of an existing gate engine (shims, fault studies).
  explicit BinaryCimBackend(bincim::MagicEngine& engine);

  /// Owning construction (factory path).
  explicit BinaryCimBackend(const BinaryCimConfig& config);

  const char* name() const override { return "Binary CIM"; }

  // Integer words carry no buffers, so the destination-passing forms are
  // plain stores of the gate-sequence results.
  void encodePixelsInto(std::span<const std::uint8_t> values,
                        std::span<ScValue> out) override;
  void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                  std::span<ScValue> out) override;
  void encodeProbInto(ScValue& dst, double p) override;
  void halfStreamInto(ScValue& dst) override { dst.word = 128; }
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

  std::uint64_t opCount() const override { return engine_->gateOps(); }

  bincim::MagicEngine& engine() { return *engine_; }

 protected:
  void doBernsteinSelectInto(ScValue& dst, std::span<const ScValue> xCopies,
                             std::span<const ScValue> coeffSelects) override;

 private:
  std::uint32_t lerp(std::uint32_t a, std::uint32_t b, std::uint32_t t);

  std::shared_ptr<const reram::FaultModel> faults_;
  std::unique_ptr<bincim::MagicEngine> ownedEngine_;
  bincim::MagicEngine* engine_;
  bincim::AritPim pim_;
  std::vector<std::uint32_t> bernScratch_;  ///< de Casteljau coefficient row
};

}  // namespace aimsc::core
