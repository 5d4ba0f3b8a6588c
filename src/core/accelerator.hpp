/// \file accelerator.hpp
/// \brief Top-level all-in-memory SC accelerator — the public API tying the
///        full flow together: TRNG -> IMSNG (B-to-S) -> SL arithmetic ->
///        ADC S-to-B (paper Fig. 1 / Sec. III).
///
/// One Accelerator owns one crossbar mat (the paper parallelizes across
/// mats; the system model in src/energy scales that out).  Stream length N
/// equals the array column count.
///
/// Correlation control (Sec. II-B / III-A): the fresh encodes
/// (encodeProbInto, encodePixelsInto) deposit fresh TRNG planes first, so
/// successive calls yield *independent* streams; the correlated encodes
/// reuse the current planes, yielding maximally correlated streams
/// (SCC = +1) as required by subtraction and CORDIV.
///
/// Every encode writes into a caller-owned destination (resized, buffer
/// reused), so a warm mat encodes without heap traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/backend.hpp"
#include "core/imops.hpp"
#include "core/ims2b.hpp"
#include "core/imsng.hpp"
#include "reram/array.hpp"
#include "reram/fault_model.hpp"
#include "reram/periphery.hpp"
#include "reram/scouting.hpp"
#include "reram/trng.hpp"

namespace aimsc::core {

struct AcceleratorConfig {
  std::size_t streamLength = 256;  ///< N = array columns
  int mBits = 8;                   ///< TRNG segment size M
  ImsngConfig::Variant imsngVariant = ImsngConfig::Variant::Opt;
  reram::DeviceParams device{};    ///< device variability parameters
  bool deviceVariability = false;       ///< probabilistic CIM misdecisions
  std::size_t faultModelSamples = reram::kFaultModelSamples;
  /// Optional memoizing supplier for the per-mat model.  It preserves
  /// per-mat tables bit-for-bit: it is invoked with this mat's own (device,
  /// seed ^ 0xf417, samples) key and must return a model constructed from
  /// exactly those arguments.  The Accelerator keeps the returned model
  /// alive.
  FaultModelProvider faultModelProvider;
  /// Wear-leveling window (rows) for the TRNG plane region; 0 = planes stay
  /// at a fixed base (historic geometry).  When >= mBits, plane deposits
  /// rotate through the window (reram::WearLeveler), bounding the per-row
  /// write-cycle spread without changing any stream bit — rotation only
  /// moves WHICH rows hold the planes, never their contents.
  std::size_t wearWindowRows = 0;
  double trngBias = 0.0;           ///< TRNG ones-bias (imperfection knob)
  bool commitSbs = true;           ///< write generated SBS to its row
  std::uint64_t seed = 0x5eed;
};

class Accelerator {
 public:
  explicit Accelerator(const AcceleratorConfig& config = AcceleratorConfig{});

  std::size_t streamLength() const { return array_->cols(); }
  const AcceleratorConfig& config() const { return config_; }

  // --- stage 1: binary -> stochastic (IMSNG) ------------------------------

  /// Independent stream encoding probability \p p (fresh random planes)
  /// into \p dst.
  void encodeProbInto(sc::Bitstream& dst, double p);

  /// Stream encoding \p p correlated with the previous encode (shared
  /// planes) into \p dst.
  void encodeProbCorrelatedInto(sc::Bitstream& dst, double p);

  /// Batched pixel encoding (p = v/255): deposits ONE fresh set of TRNG
  /// planes, then converts every value against it (one randomness epoch);
  /// stream i lands in `*outs[i]`.  All streams of the batch are mutually
  /// correlated; the epoch is independent of any earlier encode.  Amortizes
  /// the M-row plane deposit — the hot path of the tile engine.
  void encodePixelsInto(std::span<const std::uint8_t> values,
                        std::span<sc::Bitstream* const> outs);

  /// Same, but re-uses the CURRENT planes: the batch is maximally
  /// correlated with the previous encode (e.g. foreground/background
  /// operand pairs, Sec. II-B correlation control).
  void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                  std::span<sc::Bitstream* const> outs);

  /// Force-refresh the TRNG planes.
  void refreshRandomness();

  // --- stage 2: SC arithmetic in memory -----------------------------------

  ImOps& ops() { return *imops_; }

  // --- stage 3: stochastic -> binary (ADC) --------------------------------

  std::uint32_t decodeCode(const sc::Bitstream& s) { return ims2b_->convert(s); }
  double decodeProb(const sc::Bitstream& s);
  std::uint8_t decodePixel(const sc::Bitstream& s);

  /// Resistance-mode decode for CORDIV outputs (charges the column write).
  std::uint8_t decodePixelStored(const sc::Bitstream& s);

  // --- accounting ----------------------------------------------------------

  const reram::EventCounts& events() const { return array_->events().counts(); }
  void resetEvents() { array_->events().reset(); }

  reram::CrossbarArray& array() { return *array_; }
  /// This mat's misdecision table: the provider's or an owned one (nullptr
  /// when not injecting).
  const reram::FaultModel* faultModel() const { return faultModel_.get(); }

 private:
  AcceleratorConfig config_;
  std::unique_ptr<reram::CrossbarArray> array_;
  std::shared_ptr<const reram::FaultModel> faultModel_;
  std::unique_ptr<reram::ScoutingLogic> scouting_;
  std::unique_ptr<reram::Periphery> periphery_;
  std::unique_ptr<reram::ReramTrng> trng_;
  std::unique_ptr<Imsng> imsng_;
  std::unique_ptr<ImOps> imops_;
  std::unique_ptr<ImS2B> ims2b_;
};

}  // namespace aimsc::core
