/// \file backend_swsc_simd.hpp
/// \brief The software-SC engine every SW-SC `DesignKind` runs on: the
///        CMOS SW-SC design of `SwScBackend`, executed with the batched SNG
///        layer of sc/bulk_sng.hpp instead of one virtual RNG call per
///        stream bit.
///
/// Output is **bit-identical, per seed, to the scalar backend** with the
/// same `SwScConfig`: epochs derive their LFSR seeds / Sobol phases / SFMT
/// seeds from the shared helpers in backend_swsc.hpp, constants come from
/// the same `SwScConstantPool`, the stage-2 gates are the same packed-word
/// Bitstream ops, and CORDIV uses the word-level scan proven equal to the
/// serial flip-flop.  `SwScBackend` stays as the oracle the tests and
/// bench_fig5 hold this engine to.  The engine changes only how each
/// epoch's comparator draws are made and compared:
///
///  * stage-1 encode: one `RandomPlanes` comparator pass per pixel
///    (64 bits per word op, 32 per AVX2 compare, 64 per single AVX-512BW
///    `vpcmpub`) instead of N calls of `RandomSource::next`;
///  * LFSR epochs copy their draws from the paper LFSR's one 255-state
///    cycle (`sc::paperLfsrDraws`);
///  * SFMT epochs prefetch through `BulkSfmt`: 16 generators whose 128-bit
///    recurrences run fused two (AVX2) or four (AVX-512) per register;
///  * Sobol epochs walk their generator once per epoch;
///  * stage-3 decode and the op vocabulary were already word-parallel.
///
/// All width paths are runtime-dispatched through `sc::resolveSimd` —
/// `SimdMode::Auto` honours the `AIMSC_SIMD` override, explicit requests
/// clamp down to what the host supports — and every path produces the
/// same bits; width is a pure perf knob, which is why it is never carried
/// on the shard wire protocol.
#pragma once

#include <vector>

#include "core/backend_swsc.hpp"
#include "sc/bulk_sng.hpp"

namespace aimsc::core {

/// Configuration of the bulk SW-SC engine: the shared `SwScConfig` plus
/// the instruction-set selector.
struct SwScSimdConfig : SwScConfig {
  /// `Portable` forces the uint64 fallback (testing, non-x86 hosts).
  sc::SimdMode simd = sc::SimdMode::Auto;
};

/// Word-parallel software-SC execution engine, the one the factory builds
/// for every SW-SC design (see the file comment for the equivalence
/// contract).  Stage 2, constants, decode and accounting come from the
/// shared `SwScGateBackend` trunk; this class supplies the batched stage-1
/// encode and the word-level CORDIV.
class SwScSimdBackend final : public SwScGateBackend {
 public:
  explicit SwScSimdBackend(const SwScSimdConfig& config);

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

  sc::SimdMode simd_;  ///< as configured (Auto = dispatch per call)
  std::uint64_t epoch_ = 0;

  sc::RandomPlanes planes_;  ///< current epoch's packed comparator state

  /// The current epoch's comparator draws (LFSR and Sobol families).
  std::vector<std::uint8_t> epochBytes_;

  /// SFMT epoch prefetch: the comparator draws of `BulkSfmt::kLanes`
  /// consecutive epochs, stream-major (lane k = the block's first epoch
  /// + k), produced by one `BulkSfmt` pass.
  std::vector<std::uint8_t> sfmtBlock_;
};

}  // namespace aimsc::core
