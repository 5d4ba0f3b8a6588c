/// \file backend_swsc.hpp
/// \brief ScBackend over the conventional CMOS SC pipeline: software SNGs
///        (LFSR or Sobol + comparator), exact serial SC gates, counter
///        S-to-B (the paper's Table III baseline design).
///
/// Randomness-epoch semantics mirror IMSNG's correlation control
/// (Sec. II-B): each fresh-epoch encode instantiates a new random source
/// (new LFSR seed / Sobol dimension+phase), and every stream of a batch is
/// generated from that source *restarted*, so streams within an epoch are
/// maximally correlated (SCC = +1) exactly like streams sharing TRNG
/// planes — the precondition XOR subtraction and CORDIV need.
///
/// Constants (`encodeProb` / `halfStream`) do NOT burn randomness epochs:
/// they are served from a `SwScConstantPool` — independently derived
/// streams cached for the lifetime of the backend and rotated per epoch so
/// repeated requests within one epoch stay mutually independent.  The
/// epoch counter therefore advances only on data encodes, which keeps the
/// scalar and SIMD SW-SC backends (`SwScSimdBackend`) in lock-step: both
/// share the seed-derivation helpers below and produce bit-identical
/// streams for the same `SwScConfig`.
///
/// Cost accounting: `opCount()` counts serial SC op passes (each N bit
/// cycles in hardware); conversions and decodes are charged by the system
/// model, not here.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "sc/bulk_sng.hpp"
#include "sc/rng.hpp"
#include "sc/sfmt.hpp"

namespace aimsc::core {

/// SNG randomness family of the software-SC backends.  `Lfsr` and `Sobol`
/// are the paper's Table III CMOS baselines (they map onto
/// `energy::CmosSng` for cost accounting); `Sfmt` is the SIMD-native
/// SFMT-style source of sc/sfmt.hpp, whose 128-bit recurrence vectorizes
/// across epochs in the word-parallel backend.
enum class SwScSng { Lfsr, Sobol, Sfmt };

/// Human-readable family name ("LFSR" / "Sobol" / "SFMT").
const char* swScSngName(SwScSng sng);

/// Knobs shared by the scalar (`SwScBackend`) and SIMD (`SwScSimdBackend`)
/// software-SC backends; identical configs yield bit-identical streams.
struct SwScConfig {
  std::size_t streamLength = 256;  ///< N (bits per stream)
  SwScSng sng = SwScSng::Lfsr;     ///< SNG randomness family
  std::uint64_t seed = 0x5eed;     ///< master seed
};

// --- seed derivation shared with the SIMD backend ---------------------------
// One source of truth so the scalar and word-parallel paths cannot drift.

/// LFSR seed for randomness epoch \p epoch (golden-ratio stride over the
/// 254 usable nonzero seeds).
std::uint32_t swScLfsrSeedForEpoch(std::uint64_t seed, std::uint64_t epoch);

/// Sobol parameters for a randomness epoch: a fresh dimension per epoch
/// and, once the dimensions wrap, a phase offset that keeps reused
/// dimensions from replaying the same sequence.
struct SwScSobolEpoch {
  int dimension;
  std::uint64_t skip;
};
SwScSobolEpoch swScSobolForEpoch(std::uint64_t seed, std::uint64_t epoch);

/// SFMT seed for randomness epoch \p epoch: the golden-ratio stride mixed
/// through a splitmix64 finalizer, so every epoch gets a well-spread 32-bit
/// seed (the SFMT initializer accepts any value, zero included).  Shared by
/// the scalar source and every `BulkSfmt` lane, which is what keeps the
/// scalar and SIMD epoch numbering in sync.
std::uint32_t swScSfmtSeedForEpoch(std::uint64_t seed, std::uint64_t epoch);

/// Comparator threshold of an 8-bit pixel value, quantized exactly like
/// the scalar per-bit path (`generateSbsFromProb(v/255, 8, n)`).  ONE
/// table shared by the scalar and SIMD stage-1 encodes, so the two
/// backends cannot drift in quantization.
std::uint32_t swScPixelThreshold(std::uint8_t v);

/// Random source for the \p ordinal-th independent constant stream of
/// comparator threshold \p threshold (see `SwScConstantPool`).  Constants
/// draw from a seed space disjoint from the epoch derivation above.
std::unique_ptr<sc::RandomSource> swScConstantSource(const SwScConfig& config,
                                                     std::uint32_t threshold,
                                                     std::uint32_t ordinal);

/// Cache of constant streams (selects, coefficients, P=0.5 halves) shared
/// by the scalar and SIMD SW-SC backends.
///
/// Streams are generated once per (threshold, ordinal) pair and reused for
/// the backend's lifetime — the hardware analogy is a bank of dedicated
/// select SNGs that free-run beside the data path.  Within one randomness
/// epoch, successive requests for the same threshold return *successive*
/// pool entries (kernels like the smoothing MUX tree need seven mutually
/// independent halves per row); `onNewEpoch` rewinds the rotation so the
/// next row reuses the same bank.
class SwScConstantPool {
 public:
  explicit SwScConstantPool(const SwScConfig& config) : config_(config) {}

  /// Copies the next pooled stream encoding probability \p p for the
  /// current epoch into \p dst (buffer reused) — allocation-free once the
  /// bank is warm.
  void getInto(sc::Bitstream& dst, double p);

  /// Rewinds the per-epoch rotation (streams themselves are kept).
  void onNewEpoch();

 private:
  /// One comparator threshold's bank: the cached streams plus an
  /// epoch-stamped rotation cursor (stamping instead of clearing keeps the
  /// per-epoch rewind free of node churn — the hot path rolls epochs once
  /// per row).
  struct Bank {
    std::vector<sc::Bitstream> streams;
    std::size_t used = 0;
    std::uint64_t stamp = 0;
  };

  SwScConfig config_;
  std::map<std::uint32_t, Bank> pool_;
  std::uint64_t epochStamp_ = 1;
};

/// Common trunk of the scalar and SIMD SW-SC backends: the exact-MUX CMOS
/// gate set over packed `Bitstream` words (already word-parallel), the
/// pooled constants, the counter decode and the serial-pass accounting.
/// Subclasses supply stage-1 encoding and the CORDIV realisation — the
/// only places the two engines differ.
class SwScGateBackend : public ScBackend {
 public:
  explicit SwScGateBackend(const SwScConfig& config);

  /// "SW-SC (LFSR)" / "SW-SC (Sobol)" / "SW-SC (SFMT)": the design point,
  /// whichever engine runs it.
  const char* name() const override;

  // The packed-word gate set writes its result words straight into the
  // destination buffer (allocation-free on warm destinations).
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

  std::uint64_t opCount() const override { return opPasses_; }

 protected:
  void doBernsteinSelectInto(ScValue& dst, std::span<const ScValue> xCopies,
                             std::span<const ScValue> coeffSelects) override;

  /// CORDIV realisation into \p dst (serial flip-flop or word-level scan;
  /// both emit the same bits).
  virtual void divideStreamsInto(sc::Bitstream& dst, const sc::Bitstream& num,
                                 const sc::Bitstream& den) = 0;

  const SwScConfig& config() const { return config_; }
  /// Rewinds the constant pool; subclasses call this from their epoch
  /// rollover.
  void onNewEpoch() { constants_.onNewEpoch(); }

 private:
  SwScConfig config_;
  SwScConstantPool constants_;
  std::uint64_t opPasses_ = 0;
  sc::Bitstream tmpTop_;     ///< MUX-tree stage scratch (majMux4Into)
  sc::Bitstream tmpBottom_;
  // Borrowed-pointer staging for the per-pixel Bernstein network.
  std::vector<const sc::Bitstream*> copyPtrScratch_;
  std::vector<const sc::Bitstream*> coeffPtrScratch_;
};

/// Scalar software-SC engine (the Table III/IV "CMOS SC" baseline): it
/// walks each randomness epoch's generator one draw at a time.  The
/// factory builds `SwScSimdBackend` for every SW-SC design; this engine is
/// the oracle the tests and bench_fig5 hold that one to, bit for bit.
class SwScBackend final : public SwScGateBackend {
 public:
  explicit SwScBackend(const SwScConfig& config);

  /// Fused-row stage-1 forms: the epoch's comparator draw sequence
  /// R_0..R_{N-1} is materialized ONCE per epoch (the per-stream source
  /// restart makes every stream of the epoch replay the same draws), then
  /// each pixel runs the word-level comparator over the cached bytes —
  /// bit-identical to one `sc::generateSbsFromProb` pass over the restarted
  /// source per pixel, without N virtual RNG calls per pixel and without a
  /// single allocation on warm destinations.
  void encodePixelsInto(std::span<const std::uint8_t> values,
                        std::span<ScValue> out) override;
  void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                  std::span<ScValue> out) override;

 protected:
  void divideStreamsInto(sc::Bitstream& dst, const sc::Bitstream& num,
                         const sc::Bitstream& den) override;

 private:
  /// Starts a fresh randomness epoch (source re-seeded in place).
  void newEpoch();
  /// Ensures the epoch byte cache + comparator planes cover the current
  /// epoch (one pass of N draws; see encodePixelsInto).
  void refreshEpochCache();

  /// Value-held randomness sources, re-seeded per epoch — the unique_ptr
  /// churn of a source per epoch was the last steady-state allocation of
  /// the scalar encode path.  Exactly one matches config().sng.
  sc::Lfsr lfsrSource_;
  sc::Sobol sobolSource_;
  sc::Sfmt sfmtSource_;
  sc::RandomSource* epochSource_ = nullptr;  ///< the active one
  std::uint64_t epoch_ = 0;

  /// Per-epoch comparator cache for the fused-row encode (portable
  /// word-level packing; the SIMD backend's AVX2 path stays its own edge).
  std::vector<std::uint8_t> epochBytes_;
  sc::RandomPlanes epochPlanes_;
  std::uint64_t epochCacheStamp_ = 0;  ///< epoch_ value the cache matches
};

}  // namespace aimsc::core
