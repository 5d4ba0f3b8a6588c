#include "sc/sfmt.hpp"

#include <algorithm>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define AIMSC_X86 1
#else
#define AIMSC_X86 0
#endif

namespace aimsc::sc {

namespace {

// Recurrence parameters (see the header comment).  The per-32-bit-lane
// mask is SFMT19937's; the shift distances are the classic SFMT shape with
// 1-byte 128-bit shifts.
constexpr int kSr1 = 11;
constexpr int kSl1 = 18;
constexpr std::uint32_t kMsk[4] = {0xdfffffefu, 0xddfecb7fu, 0xbffaffffu,
                                   0xbffffff6u};
constexpr int kMid = 1;  ///< M: block offset of the B term

/// x_new = A(x) ^ B(y) ^ C(r1) ^ D(r2) on the portable uint32_t[4]
/// little-endian 128-bit block representation.
inline void blockRecurrencePortable(const std::uint32_t* x,
                                    const std::uint32_t* y,
                                    const std::uint32_t* r1,
                                    const std::uint32_t* r2,
                                    std::uint32_t* out) {
  // A(x) = x ^ (x <<128 8): one-byte left shift of the 128-bit integer.
  const std::uint32_t a0 = x[0] ^ (x[0] << 8);
  const std::uint32_t a1 = x[1] ^ ((x[1] << 8) | (x[0] >> 24));
  const std::uint32_t a2 = x[2] ^ ((x[2] << 8) | (x[1] >> 24));
  const std::uint32_t a3 = x[3] ^ ((x[3] << 8) | (x[2] >> 24));
  // C(r1) = r1 >>128 8: one-byte right shift.
  const std::uint32_t c0 = (r1[0] >> 8) | (r1[1] << 24);
  const std::uint32_t c1 = (r1[1] >> 8) | (r1[2] << 24);
  const std::uint32_t c2 = (r1[2] >> 8) | (r1[3] << 24);
  const std::uint32_t c3 = r1[3] >> 8;
  out[0] = a0 ^ ((y[0] >> kSr1) & kMsk[0]) ^ c0 ^ (r2[0] << kSl1);
  out[1] = a1 ^ ((y[1] >> kSr1) & kMsk[1]) ^ c1 ^ (r2[1] << kSl1);
  out[2] = a2 ^ ((y[2] >> kSr1) & kMsk[2]) ^ c2 ^ (r2[2] << kSl1);
  out[3] = a3 ^ ((y[3] >> kSr1) & kMsk[3]) ^ c3 ^ (r2[3] << kSl1);
}

/// One generation pass over a 4-block ring at \p blockStride 32-bit words
/// between consecutive block indices (4 for the scalar layout, 4 * kLanes
/// for the bulk lane-major layout).
inline void ringPassPortable(std::uint32_t* state, std::size_t blockStride) {
  std::uint32_t r1[4];
  std::uint32_t r2[4];
  std::copy_n(state + (Sfmt::kBlocks - 2) * blockStride, 4, r1);
  std::copy_n(state + (Sfmt::kBlocks - 1) * blockStride, 4, r2);
  for (int i = 0; i < Sfmt::kBlocks; ++i) {
    std::uint32_t* x = state + static_cast<std::size_t>(i) * blockStride;
    const std::uint32_t* y =
        state + static_cast<std::size_t>((i + kMid) % Sfmt::kBlocks) *
                    blockStride;
    std::uint32_t fresh[4];
    blockRecurrencePortable(x, y, r1, r2, fresh);
    std::copy_n(fresh, 4, x);
    std::copy_n(r2, 4, r1);
    std::copy_n(fresh, 4, r2);
  }
}

/// MT19937 state initializer: never all-zero, any seed (zero included).
inline void mtInit(std::uint32_t seed, std::uint32_t* words, int count) {
  words[0] = seed;
  for (int i = 1; i < count; ++i) {
    words[i] =
        1812433253u * (words[i - 1] ^ (words[i - 1] >> 30)) +
        static_cast<std::uint32_t>(i);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Sfmt (scalar reference)
// ---------------------------------------------------------------------------

Sfmt::Sfmt(std::uint32_t seed) : seed_(seed) { reset(); }

void Sfmt::reset() {
  mtInit(seed_, state_, kWordsPerPass);
  for (int p = 0; p < kWarmupPasses; ++p) generatePass();
  cursor_ = kWordsPerPass;
}

void Sfmt::reseed(std::uint32_t seed) {
  seed_ = seed;
  reset();
}

void Sfmt::generatePass() { ringPassPortable(state_, 4); }

std::uint32_t Sfmt::next32() {
  if (cursor_ == kWordsPerPass) {
    generatePass();
    cursor_ = 0;
  }
  return state_[cursor_++];
}

std::uint32_t Sfmt::next(int bits) {
  if (bits < 1 || bits > 32) {
    throw std::invalid_argument("Sfmt::next: bits must be in [1, 32]");
  }
  const std::uint32_t v = next32();
  return bits == 32 ? v : v >> (32 - bits);
}

std::unique_ptr<RandomSource> Sfmt::clone() const {
  return std::make_unique<Sfmt>(seed_);
}

// ---------------------------------------------------------------------------
// BulkSfmt
// ---------------------------------------------------------------------------

namespace {

#if AIMSC_X86

/// One pass for one lane with the native 128-bit recurrence (pslldq /
/// psrldq are exactly the A/C byte shifts).
__attribute__((target("sse2"))) void lanePassSse2(std::uint32_t* lane,
                                                  std::size_t blockStride) {
  const __m128i msk = _mm_set_epi32(
      static_cast<int>(kMsk[3]), static_cast<int>(kMsk[2]),
      static_cast<int>(kMsk[1]), static_cast<int>(kMsk[0]));
  auto* s = reinterpret_cast<__m128i*>(lane);
  const auto at = [&](int i) {
    return reinterpret_cast<__m128i*>(lane + static_cast<std::size_t>(i) *
                                                 blockStride);
  };
  (void)s;
  __m128i r1 = _mm_loadu_si128(at(Sfmt::kBlocks - 2));
  __m128i r2 = _mm_loadu_si128(at(Sfmt::kBlocks - 1));
  for (int i = 0; i < Sfmt::kBlocks; ++i) {
    const __m128i x = _mm_loadu_si128(at(i));
    const __m128i y = _mm_loadu_si128(at((i + kMid) % Sfmt::kBlocks));
    __m128i fresh = _mm_xor_si128(x, _mm_slli_si128(x, 1));
    fresh = _mm_xor_si128(
        fresh, _mm_and_si128(_mm_srli_epi32(y, kSr1), msk));
    fresh = _mm_xor_si128(fresh, _mm_srli_si128(r1, 1));
    fresh = _mm_xor_si128(fresh, _mm_slli_epi32(r2, kSl1));
    _mm_storeu_si128(at(i), fresh);
    r1 = r2;
    r2 = fresh;
  }
}

/// One pass for TWO adjacent lanes fused in one 256-bit register:
/// vpslldq/vpsrldq shift within each 128-bit lane independently, so the
/// two generators never contaminate each other.
__attribute__((target("avx2"))) void lanePairPassAvx2(
    std::uint32_t* pair, std::size_t blockStride) {
  const __m128i msk128 = _mm_set_epi32(
      static_cast<int>(kMsk[3]), static_cast<int>(kMsk[2]),
      static_cast<int>(kMsk[1]), static_cast<int>(kMsk[0]));
  const __m256i msk = _mm256_broadcastsi128_si256(msk128);
  const auto at = [&](int i) {
    return reinterpret_cast<__m256i*>(pair + static_cast<std::size_t>(i) *
                                                 blockStride);
  };
  __m256i r1 = _mm256_loadu_si256(at(Sfmt::kBlocks - 2));
  __m256i r2 = _mm256_loadu_si256(at(Sfmt::kBlocks - 1));
  for (int i = 0; i < Sfmt::kBlocks; ++i) {
    const __m256i x = _mm256_loadu_si256(at(i));
    const __m256i y = _mm256_loadu_si256(at((i + kMid) % Sfmt::kBlocks));
    __m256i fresh = _mm256_xor_si256(x, _mm256_slli_si256(x, 1));
    fresh = _mm256_xor_si256(
        fresh, _mm256_and_si256(_mm256_srli_epi32(y, kSr1), msk));
    fresh = _mm256_xor_si256(fresh, _mm256_srli_si256(r1, 1));
    fresh = _mm256_xor_si256(fresh, _mm256_slli_epi32(r2, kSl1));
    _mm256_storeu_si256(at(i), fresh);
    r1 = r2;
    r2 = fresh;
  }
}

/// One pass for FOUR adjacent lanes fused in one 512-bit register
/// (vpslldq/vpsrldq per-128-bit-lane semantics again).  The broadcast and
/// the dword shifts use their zero-masked forms under an all-ones mask,
/// which compute the same values: GCC's unmasked forms hand the builtin an
/// undefined pass-through operand that -Wuninitialized reports.
__attribute__((target("avx512f,avx512bw"))) void laneQuadPassAvx512(
    std::uint32_t* quad, std::size_t blockStride) {
  constexpr __mmask16 kAll = 0xffff;
  const __m128i msk128 = _mm_set_epi32(
      static_cast<int>(kMsk[3]), static_cast<int>(kMsk[2]),
      static_cast<int>(kMsk[1]), static_cast<int>(kMsk[0]));
  const __m512i msk = _mm512_maskz_broadcast_i32x4(kAll, msk128);
  const auto at = [&](int i) {
    return quad + static_cast<std::size_t>(i) * blockStride;
  };
  __m512i r1 = _mm512_loadu_si512(at(Sfmt::kBlocks - 2));
  __m512i r2 = _mm512_loadu_si512(at(Sfmt::kBlocks - 1));
  for (int i = 0; i < Sfmt::kBlocks; ++i) {
    const __m512i x = _mm512_loadu_si512(at(i));
    const __m512i y = _mm512_loadu_si512(at((i + kMid) % Sfmt::kBlocks));
    __m512i fresh = _mm512_xor_si512(x, _mm512_bslli_epi128(x, 1));
    fresh = _mm512_xor_si512(
        fresh,
        _mm512_and_si512(_mm512_maskz_srli_epi32(kAll, y, kSr1), msk));
    fresh = _mm512_xor_si512(fresh, _mm512_bsrli_epi128(r1, 1));
    fresh =
        _mm512_xor_si512(fresh, _mm512_maskz_slli_epi32(kAll, r2, kSl1));
    _mm512_storeu_si512(at(i), fresh);
    r1 = r2;
    r2 = fresh;
  }
}

#endif  // AIMSC_X86

}  // namespace

BulkSfmt::BulkSfmt(const std::array<std::uint32_t, kLanes>& seeds,
                   SimdMode mode)
    : resolved_(resolveSimd(mode)) {
  // Seed each lane exactly like the scalar source, scattering the 16-word
  // init sequence into the lane-major block layout.
  std::uint32_t words[Sfmt::kWordsPerPass];
  for (std::size_t k = 0; k < kLanes; ++k) {
    mtInit(seeds[k], words, Sfmt::kWordsPerPass);
    for (int j = 0; j < Sfmt::kWordsPerPass; ++j) {
      state_[((static_cast<std::size_t>(j / 4) * kLanes) + k) * 4 + (j % 4)] =
          words[j];
    }
  }
  for (int p = 0; p < Sfmt::kWarmupPasses; ++p) generatePass();
}

void BulkSfmt::generatePass() {
  // Block i of lane k lives at ((i * kLanes) + k) * 4 words, so the block
  // stride seen from any lane slot is kLanes * 4 words.
  constexpr std::size_t kStride = kLanes * 4;
  switch (resolved_) {
#if AIMSC_X86
    case SimdMode::Avx512:
      for (std::size_t k = 0; k < kLanes; k += 4) {
        laneQuadPassAvx512(state_ + k * 4, kStride);
      }
      return;
    case SimdMode::Avx2:
      for (std::size_t k = 0; k < kLanes; k += 2) {
        lanePairPassAvx2(state_ + k * 4, kStride);
      }
      return;
    case SimdMode::Sse2:
      for (std::size_t k = 0; k < kLanes; ++k) {
        lanePassSse2(state_ + k * 4, kStride);
      }
      return;
#endif
    default:
      for (std::size_t k = 0; k < kLanes; ++k) {
        ringPassPortable(state_ + k * 4, kStride);
      }
      return;
  }
}

void BulkSfmt::generate(std::size_t n, std::uint8_t* out) {
  // Pass-aligned one-shot production (the backend refills a whole epoch
  // block per seeding): draw i of lane k is word i of that lane's output
  // sequence, truncated to its top byte — the `next(8)` comparator draw.
  std::size_t i = 0;
  while (i < n) {
    generatePass();
    const std::size_t take =
        std::min<std::size_t>(Sfmt::kWordsPerPass, n - i);
    for (std::size_t k = 0; k < kLanes; ++k) {
      for (std::size_t j = 0; j < take; ++j) {
        const std::uint32_t w =
            state_[(((j / 4) * kLanes) + k) * 4 + (j % 4)];
        out[k * n + i + j] = static_cast<std::uint8_t>(w >> 24);
      }
    }
    i += take;
  }
}

}  // namespace aimsc::sc
