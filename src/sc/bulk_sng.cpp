#include "sc/bulk_sng.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "sc/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define AIMSC_X86 1
#else
#define AIMSC_X86 0
#endif

namespace aimsc::sc {

namespace {

constexpr std::size_t kLfsrPeriod = 255;

/// The paper LFSR's one cycle, stored twice so that any 255 consecutive
/// draws are one contiguous run, and each state's position in it.
struct LfsrCycle {
  std::array<std::uint8_t, 2 * kLfsrPeriod> states{};
  std::array<std::uint8_t, 256> position{};
};

}  // namespace

void paperLfsrDraws(std::uint8_t seed, std::size_t n, std::uint8_t* out) {
  if (seed == 0) {
    throw std::invalid_argument("paperLfsrDraws: zero seed locks the register");
  }
  static const LfsrCycle kCycle = [] {
    LfsrCycle c;
    Lfsr lfsr = Lfsr::paper8Bit(1);
    for (std::size_t k = 0; k < c.states.size(); ++k) {
      c.states[k] = static_cast<std::uint8_t>(lfsr.state());
      if (k < kLfsrPeriod) {
        c.position[c.states[k]] = static_cast<std::uint8_t>(k);
      }
      lfsr.step();
    }
    return c;
  }();
  // Draw i is the state i+1 steps past the seed; after 255 draws the run
  // starts over at the same position.
  const std::uint8_t* run = kCycle.states.data() + kCycle.position[seed] + 1;
  for (std::size_t i = 0; i < n; i += kLfsrPeriod) {
    std::memcpy(out + i, run, std::min(kLfsrPeriod, n - i));
  }
}

// ---------------------------------------------------------------------------
// RandomPlanes
// ---------------------------------------------------------------------------

void RandomPlanes::assign(const std::uint8_t* r, std::size_t n,
                          SimdMode mode) {
  n_ = n;
  words_ = (n + 63) / 64;
  bytes_.assign(words_ * 64, 0xFF);
  for (std::size_t i = 0; i < n; ++i) bytes_[i] = r[i];
  planesBuilt_ = false;
  if (resolveSimd(mode) == SimdMode::Portable) buildPlanes();
}

void RandomPlanes::buildPlanes() const {
  planes_.assign(8 * words_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    const std::uint8_t v = bytes_[i];
    for (int b = 0; b < 8; ++b) {
      if ((v >> b) & 1u) {
        planes_[static_cast<std::size_t>(b) * words_ + i / 64] |= bit;
      }
    }
  }
  planesBuilt_ = true;
}

namespace {

#if AIMSC_X86

/// SSE2 comparator: 16 stream bits per pcmpgtb+pmovmskb pair, four pairs
/// per output word.  R < x (unsigned) is evaluated as (x ^ 0x80) >
/// (R ^ 0x80) (signed), the standard bias trick.
__attribute__((target("sse2"))) void encodeSse2(const std::uint8_t* bytes,
                                                std::size_t words,
                                                std::uint32_t x,
                                                std::uint64_t* out) {
  const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
  const __m128i xs = _mm_set1_epi8(static_cast<char>(x ^ 0x80u));
  for (std::size_t w = 0; w < words; ++w) {
    const auto* p = reinterpret_cast<const __m128i*>(bytes + w * 64);
    std::uint64_t m = 0;
    for (int q = 0; q < 4; ++q) {
      const __m128i r = _mm_xor_si128(_mm_loadu_si128(p + q), bias);
      m |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               _mm_movemask_epi8(_mm_cmpgt_epi8(xs, r))))
           << (16 * q);
    }
    out[w] = m;
  }
}

/// AVX2 comparator: 32 stream bits per vpcmpgtb+vpmovmskb pair (same bias
/// trick as SSE2).
__attribute__((target("avx2"))) void encodeAvx2(const std::uint8_t* bytes,
                                                std::size_t words,
                                                std::uint32_t x,
                                                std::uint64_t* out) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i xs = _mm256_set1_epi8(static_cast<char>(x ^ 0x80u));
  for (std::size_t w = 0; w < words; ++w) {
    const auto* p = reinterpret_cast<const __m256i*>(bytes + w * 64);
    const __m256i lo = _mm256_xor_si256(_mm256_loadu_si256(p), bias);
    const __m256i hi = _mm256_xor_si256(_mm256_loadu_si256(p + 1), bias);
    const auto mlo = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpgt_epi8(xs, lo)));
    const auto mhi = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpgt_epi8(xs, hi)));
    out[w] = static_cast<std::uint64_t>(mlo) |
             (static_cast<std::uint64_t>(mhi) << 32);
  }
}

/// AVX-512BW comparator: 64 stream bits per single vpcmpub — the unsigned
/// compare writes a native 64-bit mask, so no bias trick and no movemask.
__attribute__((target("avx512f,avx512bw"))) void encodeAvx512(
    const std::uint8_t* bytes, std::size_t words, std::uint32_t x,
    std::uint64_t* out) {
  const __m512i xs = _mm512_set1_epi8(static_cast<char>(x));
  for (std::size_t w = 0; w < words; ++w) {
    const __m512i r = _mm512_loadu_si512(bytes + w * 64);
    out[w] = _mm512_cmplt_epu8_mask(r, xs);
  }
}

#endif  // AIMSC_X86

/// Portable comparator: a ripple compare over the eight bit-planes decides
/// R < x for 64 stream positions per pass (MSB-first; `lt` collects
/// positions decided below x while `eq` tracks still-equal prefixes).
void encodePortable(const std::uint64_t* planes, std::size_t words,
                    std::uint32_t x, std::uint64_t* out) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t lt = 0;
    std::uint64_t eq = ~std::uint64_t{0};
    for (int b = 7; b >= 0; --b) {
      const std::uint64_t pb = planes[static_cast<std::size_t>(b) * words + w];
      if ((x >> b) & 1u) {
        lt |= eq & ~pb;
        eq &= pb;
      } else {
        eq &= ~pb;
      }
    }
    out[w] = lt;
  }
}

}  // namespace

void RandomPlanes::encode(std::uint32_t x, Bitstream& out,
                          SimdMode mode) const {
  out.assign(n_, false);
  if (n_ == 0) return;
  auto& words = out.mutableWords();
  if (x >= 256) {
    out.assign(n_, true);  // threshold 2^8: the comparator always fires
    return;
  }
  if (x == 0) return;  // nothing beats a zero threshold
  switch (resolveSimd(mode)) {
#if AIMSC_X86
    case SimdMode::Avx512:
      encodeAvx512(bytes_.data(), words_, x, words.data());
      break;
    case SimdMode::Avx2:
      encodeAvx2(bytes_.data(), words_, x, words.data());
      break;
    case SimdMode::Sse2:
      encodeSse2(bytes_.data(), words_, x, words.data());
      break;
#endif
    default:
      if (!planesBuilt_) buildPlanes();
      encodePortable(planes_.data(), words_, x, words.data());
      break;
  }
  out.clearTail();
}

}  // namespace aimsc::sc
