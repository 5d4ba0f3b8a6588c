/// \file bulk_sng.hpp
/// \brief Word/SIMD-parallel stochastic number generation: the paper
///        LFSR's draws copied from its one 255-state cycle, and a packed
///        bit-plane comparator dispatched over the full
///        portable / SSE2 / AVX2 / AVX-512BW ladder of sc/simd_caps.hpp.
///
/// The scalar SW-SC path pays one virtual RNG call **per stream bit**
/// (`generateSbs`: N calls of `RandomSource::next` per pixel).  This layer
/// restructures the same comparator construction (Sec. II-B: bit i =
/// R_i < X) into two batched stages:
///
///  1. **Epoch draws** — `paperLfsrDraws` writes the n `next(8)` draws of
///     `Lfsr::paper8Bit(seed)` with one block copy per 255 draws.  Taps
///     {8,5,3,1} are maximal, so every nonzero seed walks the same
///     255-state cycle from its own position (Golomb, *Shift Register
///     Sequences*, 1967): one cycle table and one state -> position table
///     replace stepping the register.  The SFMT family batches its epochs
///     through `BulkSfmt` (sc/sfmt.hpp).
///  2. **Packed comparator** — `RandomPlanes` stores one randomness epoch's
///     comparator sequence R both as raw bytes and as eight transposed
///     bit-planes.  `encode` then evaluates R_i < X for 64 stream bits per
///     plane pass (portable `uint64_t` path), 16 bytes per SSE2
///     `pcmpgtb`/`pmovmskb` pair, 32 bytes per AVX2 pair, or **64
///     comparator bits per single AVX-512BW `vpcmpub`** (the compare
///     writes a native 64-bit mask — one instruction per output word).
///     Every path computes the exact predicate, so their outputs are
///     bit-identical; results never depend on which instruction set
///     executed them.  Width selection resolves through
///     `sc::resolveSimd`, i.e. honours the `AIMSC_SIMD` override.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sc/bitstream.hpp"
#include "sc/simd_caps.hpp"

namespace aimsc::sc {

/// Writes the first \p n `next(8)` draws of `Lfsr::paper8Bit(seed)` to
/// \p out (room for \p n bytes): `out[i]` is the register state after
/// step i+1, read from the one 255-state cycle of taps {8,5,3,1}.  A zero
/// seed locks a Fibonacci LFSR at zero, so it throws
/// std::invalid_argument, as `Lfsr` does.
void paperLfsrDraws(std::uint8_t seed, std::size_t n, std::uint8_t* out);

/// One randomness epoch's comparator sequence R_0..R_{n-1}, stored packed
/// for word-parallel encoding: the raw bytes (SIMD compare paths) plus the
/// eight transposed bit-planes (portable comparator path).
///
/// `encode(x)` produces the stochastic bit-stream whose bit i is the exact
/// comparator predicate R_i < x — the same construction as `generateSbs`,
/// evaluated 64..512 bits per instruction instead of one.
class RandomPlanes {
 public:
  RandomPlanes() = default;

  /// Adopts the epoch sequence `r[0..n)` (8-bit comparator draws).
  /// Reuses buffers across epochs.  \p mode is the width the subsequent
  /// encodes will run at: when it resolves to the portable path the
  /// transposed planes are built EAGERLY here, so `encode` on a portable
  /// host never writes shared state — shard workers adopt arenas across
  /// requests, and an encode-time lazy build would be a data race waiting
  /// to happen.  On SIMD hosts the planes stay unbuilt (the compare paths
  /// never read them); an explicit `encode(..., Portable)` on such an
  /// instance still lazily builds them, which is safe only from the
  /// single-threaded test paths that do it.
  void assign(const std::uint8_t* r, std::size_t n,
              SimdMode mode = SimdMode::Auto);

  /// Stream length (bits) this epoch encodes.
  std::size_t length() const { return n_; }

  /// True when the transposed bit-planes are materialized (eager portable
  /// assign, or a lazy build by a previous portable encode).
  bool planesReady() const { return planesBuilt_; }

  /// Encodes integer threshold \p x in [0, 256] (256 = "always 1", the
  /// `quantizeProbability` convention) into \p out: bit i = R_i < x.
  /// \p out is resized to `length()`.  All width paths are bit-identical;
  /// \p mode only selects the instructions used (resolved via
  /// `resolveSimd`, so `Auto` honours `AIMSC_SIMD`).
  void encode(std::uint32_t x, Bitstream& out,
              SimdMode mode = SimdMode::Auto) const;

 private:
  /// Transposes bytes_ into planes_ (portable comparator path only).
  void buildPlanes() const;

  std::size_t n_ = 0;      ///< stream length in bits
  std::size_t words_ = 0;  ///< ceil(n / 64)
  /// Raw comparator bytes padded to words_*64 with 0xFF (padding never
  /// satisfies R < x for x <= 255; the tail is cleared after encode).
  std::vector<std::uint8_t> bytes_;
  /// Eight bit-planes, plane b at [b * words_, (b+1) * words_): bit i of
  /// plane b = bit b of R_i.  Built eagerly by a portable-mode assign;
  /// the mutable lazy build only remains for explicit-portable encodes on
  /// SIMD-assigned instances (single-threaded callers only).
  mutable std::vector<std::uint64_t> planes_;
  mutable bool planesBuilt_ = false;
};

}  // namespace aimsc::sc
