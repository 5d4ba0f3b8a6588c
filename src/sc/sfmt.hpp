/// \file sfmt.hpp
/// \brief SIMD-oriented Fast-Mersenne-Twister-style epoch source: the third
///        SW-SC RNG family (alongside the LFSR and Sobol sources), designed
///        so its 128-bit block recurrence is *natively* one SIMD register
///        wide and vectorizes ACROSS generators at 256/512-bit widths.
///
/// The generator follows the SFMT shape (Saito & Matsumoto): state is a
/// ring of `kBlocks` 128-bit blocks advanced by
///
///     x_i = A(x_{i-N}) ^ B(x_{i-N+M}) ^ C(r1) ^ D(r2)
///
/// with A(w) = w ^ (w <<128 8)   (128-bit left byte shift),
///      B(w) = (w >>32 11) & MSK (per-32-bit-lane shift + mask),
///      C(w) = w >>128 8         (128-bit right byte shift),
///      D(w) = w <<32 18         (per-32-bit-lane shift),
/// where r1/r2 are the two most recently produced blocks.  Every operation
/// is exact on both the portable `uint32_t[4]` representation and on
/// `__m128i` (the byte shifts are `pslldq`/`psrldq`), and the per-128-bit
/// lane semantics of `vpslldq`/`vpsrldq` at 256/512-bit widths mean TWO
/// (AVX2) or FOUR (AVX-512BW) independent generators advance per
/// instruction when their blocks are interleaved lane-major — the
/// MT19937-SIMD layout idiom applied one level up.  All widths are
/// bit-identical by construction.
///
/// This is a compact SFMT *variant* (kBlocks = 4, i.e. 512 bits of state
/// per generator, seeded by the MT19937 initializer plus warm-up passes),
/// not the certified SFMT19937: SW-SC epochs draw at most a few thousand
/// 8-bit comparator thresholds, so the premium is on vectorizable state
/// layout and seed-derivation hygiene, not astronomical period.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "sc/rng.hpp"
#include "sc/simd_caps.hpp"

namespace aimsc::sc {

/// Scalar/portable reference implementation of the SFMT-style source; the
/// family's bit-exactness oracle.  `next(8)` (the comparator draw) returns
/// the top 8 bits of the next 32-bit output word, like the Sobol source.
class Sfmt final : public RandomSource {
 public:
  /// 128-bit blocks in the state ring (N).
  static constexpr int kBlocks = 4;
  /// 32-bit output words per generation pass (4 per block).
  static constexpr int kWordsPerPass = kBlocks * 4;
  /// Discarded mixing passes after (re)seeding.
  static constexpr int kWarmupPasses = 2;

  /// Any 32-bit seed is valid (the MT-style initializer never yields an
  /// all-zero state, zero seed included).
  explicit Sfmt(std::uint32_t seed = 1);

  std::uint32_t next(int bits) override;
  void reset() override;
  std::string name() const override { return "SFMT128"; }
  std::unique_ptr<RandomSource> clone() const override;

  /// Next raw 32-bit output word.
  std::uint32_t next32();

  /// Re-seeds in place (same state as a freshly constructed `Sfmt(seed)`);
  /// allocation-free — the per-epoch rollover hook of the SW-SC hot path.
  void reseed(std::uint32_t seed);

 private:
  void generatePass();

  std::uint32_t seed_;
  std::uint32_t state_[kWordsPerPass];
  int cursor_ = kWordsPerPass;  ///< consumed words; full = regenerate
};

/// Batch of `kLanes` independent SFMT-style generators producing the
/// stream-major comparator-draw block the bulk SW-SC engine prefetches
/// (lane k = randomness epoch base+k).
///
/// State layout is lane-major per block index: block i of lanes
/// k..k+3 are adjacent 128-bit slots, so one 256-bit (512-bit) register
/// holds block i of two (four) generators and the whole recurrence — byte
/// shifts included — runs per-128-bit-lane in lock-step.  Every width path
/// reproduces the scalar `Sfmt` sequence bit for bit.
class BulkSfmt {
 public:
  /// Lanes per prefetch block: a multiple of 4 so the AVX-512 path (4
  /// generators per register) never needs a remainder loop.
  static constexpr std::size_t kLanes = 16;

  /// Seeds lane k with `seeds[k]` (any values; see `Sfmt`).  \p mode picks
  /// the recurrence width (resolved via `resolveSimd`; pure perf knob).
  explicit BulkSfmt(const std::array<std::uint32_t, kLanes>& seeds,
                    SimdMode mode = SimdMode::Auto);

  /// Writes n comparator draws per lane, stream-major: `out[k * n + i]` is
  /// draw i of lane k — exactly the bytes `Sfmt(seeds[k])` produces from n
  /// `next(8)` calls.  \p out must have room for `kLanes * n` bytes.
  void generate(std::size_t n, std::uint8_t* out);

 private:
  void generatePass();

  SimdMode resolved_;
  /// [block i][lane k][word w] at ((i * kLanes) + k) * 4 + w — block i of
  /// consecutive lanes is contiguous, the SIMD-fusion precondition.
  alignas(64) std::uint32_t state_[Sfmt::kBlocks * kLanes * 4];
};

}  // namespace aimsc::sc
