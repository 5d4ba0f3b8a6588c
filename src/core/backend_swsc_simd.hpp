/// \file backend_swsc_simd.hpp
/// \brief Word/SIMD-parallel software-SC backend (`DesignKind::SwScSimd`):
///        the same CMOS SW-SC design as `SwScBackend`, executed with the
///        batched SNG layer of sc/bulk_sng.hpp instead of one virtual RNG
///        call per stream bit.
///
/// Output is **bit-identical, per seed, to the scalar backend** with the
/// same `SwScConfig`: epochs derive their LFSR seeds / Sobol phases from
/// the shared helpers in backend_swsc.hpp, constants come from the same
/// `SwScConstantPool`, the stage-2 gates are the same packed-word Bitstream
/// ops, and CORDIV uses the word-level scan proven equal to the serial
/// flip-flop.  "SIMD" therefore changes only the instructions per bit:
///
///  * stage-1 encode: one `RandomPlanes` comparator pass per pixel
///    (64 bits per word op, 32 per AVX2 compare, 64 per single AVX-512BW
///    `vpcmpub`) instead of N calls of `RandomSource::next`;
///  * LFSR epochs are *prefetched in blocks*: one bulk pass advances 32
///    (64 on AVX-512 hosts) future epochs' registers in lock-step
///    (stream-major state, the MT19937-SIMD layout idiom);
///  * SFMT epochs prefetch through `BulkSfmt`: 16 generators whose 128-bit
///    recurrences run fused two (AVX2) or four (AVX-512) per register;
///  * stage-3 decode and the op vocabulary were already word-parallel.
///
/// All width paths are runtime-dispatched through `sc::resolveSimd` —
/// `SimdMode::Auto` honours the `AIMSC_SIMD` override, explicit requests
/// clamp down to what the host supports — and every path produces the
/// same bits; width (and the prefetch depth it implies) is a pure perf
/// knob, which is why it is never carried on the shard wire protocol.
#pragma once

#include <vector>

#include "core/backend_swsc.hpp"
#include "sc/bulk_sng.hpp"

namespace aimsc::core {

/// Configuration of the SIMD SW-SC backend: the shared `SwScConfig` plus
/// the instruction-set selector.
struct SwScSimdConfig : SwScConfig {
  /// `Portable` forces the uint64 fallback (testing, non-x86 hosts).
  sc::SimdMode simd = sc::SimdMode::Auto;
};

/// Word-parallel software-SC execution engine; drop-in replacement for
/// `SwScBackend` (see the file comment for the equivalence contract).
/// Stage 2, constants, decode and accounting come from the shared
/// `SwScGateBackend` trunk; this class supplies the batched stage-1 encode
/// and the word-level CORDIV.
class SwScSimdBackend final : public SwScGateBackend {
 public:
  explicit SwScSimdBackend(const SwScSimdConfig& config);

  const char* name() const override;

  /// Stage-1 forms: the packed comparator writes each pixel's stream into
  /// its warm arena slot (no per-pixel allocation).
  void encodePixelsInto(std::span<const std::uint8_t> values,
                        std::span<ScValue> out) override;
  void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                  std::span<ScValue> out) override;

 protected:
  void divideStreamsInto(sc::Bitstream& dst, const sc::Bitstream& num,
                         const sc::Bitstream& den) override;

 private:
  /// Starts a fresh randomness epoch and rebuilds the comparator planes.
  void newEpoch();
  /// Refills the epoch prefetch block (LFSR or SFMT family) so lane 0
  /// corresponds to \p epoch.
  void refillBlock(std::uint64_t epoch);

  sc::SimdMode simd_;      ///< as configured (Auto = dispatch per call)
  sc::SimdMode resolved_;  ///< resolveSimd(simd_): prefetch-depth choice
  std::uint64_t epoch_ = 0;

  sc::RandomPlanes planes_;  ///< current epoch's packed comparator state

  /// Bulk epoch prefetch (LFSR and SFMT families): comparator sequences
  /// for epochs [blockBase_, blockBase_ + blockLanes_), stream-major
  /// (lane k = epoch blockBase_ + k), produced by one bulk-generator pass.
  /// blockLanes_ is 32 LFSR lanes (64 when the resolved width is AVX-512 —
  /// one 512-bit register per SWAR word pass) or BulkSfmt::kLanes.
  std::vector<std::uint8_t> block_;
  std::size_t blockLanes_ = 0;
  std::uint64_t blockBase_ = 0;  ///< 0 = block not yet generated

  std::vector<std::uint8_t> sobolBytes_;  ///< scratch for Sobol epochs
};

}  // namespace aimsc::core
