/// \file select.hpp
/// \brief Select on a 64-bit word: the set bit of a given rank.
///
/// Faulty scouting places each misdecision flip at a rank among a pattern
/// class's columns (docs/ARCHITECTURE.md §4.2) and finds the column with a
/// broadword select: byte counts summed by one multiply pick the byte, and
/// a 2 KB table gives the bit inside it (Vigna, "Broadword implementation
/// of rank/select queries", WEA 2008).  It needs nothing beyond the x86-64
/// baseline and has no data-dependent loop.
#pragma once

#include <array>
#include <cstdint>

namespace aimsc::sc {

/// kSelectInByte[b * 8 + r]: position of the set bit of rank r (0 = lowest)
/// in byte b; 0 where b has no such bit.
inline constexpr std::array<std::uint8_t, 256 * 8> kSelectInByte = [] {
  std::array<std::uint8_t, 256 * 8> t{};
  for (unsigned b = 0; b < 256; ++b) {
    unsigned r = 0;
    for (unsigned i = 0; i < 8; ++i) {
      if ((b >> i) & 1u) t[b * 8 + r++] = static_cast<std::uint8_t>(i);
    }
  }
  return t;
}();

/// One-bit mask of the set bit of rank \p rank (0 = lowest) in \p word;
/// \p rank must be below popcount(word).
inline std::uint64_t selectBit(std::uint64_t word, unsigned rank) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  std::uint64_t s = word - ((word >> 1) & 0x5555555555555555ull);
  s = (s & 0x3333333333333333ull) + ((s >> 2) & 0x3333333333333333ull);
  s = (s + (s >> 4)) & 0x0f0f0f0f0f0f0f0full;
  const std::uint64_t upTo = s * kOnes;  // byte b: set bits in bytes 0..b
  // Byte b's high bit is set iff upTo_b <= rank; their count * 8 is the
  // first bit of the byte that holds the rank.
  const std::uint64_t passed =
      ((static_cast<std::uint64_t>(rank) * kOnes | kHigh) - upTo) & kHigh;
  const unsigned shift =
      static_cast<unsigned>(((passed >> 7) * kOnes) >> 56) * 8;
  // Set bits below that byte: byte shift / 8 - 1 of upTo (0 for byte 0).
  const auto before = static_cast<unsigned>((upTo << 8 >> shift) & 0xff);
  const auto byte = static_cast<unsigned>((word >> shift) & 0xff);
  return std::uint64_t{1} << (shift + kSelectInByte[byte * 8 + rank - before]);
}

}  // namespace aimsc::sc
