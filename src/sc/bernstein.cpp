#include "sc/bernstein.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "sc/sng.hpp"

namespace aimsc::sc {

Bitstream scBernsteinSelect(std::span<const Bitstream* const> xCopies,
                            std::span<const Bitstream* const> coeffs) {
  Bitstream out;
  scBernsteinSelectInto(out, xCopies, coeffs);
  return out;
}

void scBernsteinSelectInto(Bitstream& dst,
                           std::span<const Bitstream* const> xCopies,
                           std::span<const Bitstream* const> coeffs) {
  if (xCopies.empty()) {
    throw std::invalid_argument("scBernsteinSelect: no x copies");
  }
  if (coeffs.size() != xCopies.size() + 1) {
    throw std::invalid_argument("scBernsteinSelect: need degree+1 coefficients");
  }
  const std::size_t width = xCopies.front()->size();
  for (const auto* s : xCopies) {
    if (s->size() != width) {
      throw std::invalid_argument("scBernsteinSelect: width mismatch");
    }
  }
  for (const auto* s : coeffs) {
    if (s->size() != width) {
      throw std::invalid_argument("scBernsteinSelect: width mismatch");
    }
  }
  dst.assign(width, false);
  // Per word: a bit-sliced count of the copies' ones (count plane j holds
  // bit j of every column's count), then each column takes the coefficient
  // bit its count selects.  The coefficients' zero tails keep dst's zero.
  const std::size_t degree = xCopies.size();
  const auto planes = static_cast<std::size_t>(std::bit_width(degree));
  std::uint64_t* out = dst.mutableWords().data();
  for (std::size_t w = 0; w < dst.words().size(); ++w) {
    std::uint64_t count[64] = {};
    for (const auto* s : xCopies) {
      std::uint64_t carry = s->words()[w];
      for (std::size_t j = 0; j < planes && carry != 0; ++j) {
        const std::uint64_t next = count[j] & carry;
        count[j] ^= carry;
        carry = next;
      }
    }
    std::uint64_t o = 0;
    for (std::size_t k = 0; k <= degree; ++k) {
      std::uint64_t is = coeffs[k]->words()[w];
      for (std::size_t j = 0; j < planes; ++j) {
        is &= (k >> j) & 1u ? count[j] : ~count[j];
      }
      o |= is;
    }
    out[w] = o;
  }
}

namespace {

std::vector<const Bitstream*> borrowed(const std::vector<Bitstream>& streams) {
  std::vector<const Bitstream*> ptrs;
  ptrs.reserve(streams.size());
  for (const Bitstream& s : streams) ptrs.push_back(&s);
  return ptrs;
}

}  // namespace

Bitstream scBernsteinSelect(const std::vector<Bitstream>& xCopies,
                            const std::vector<Bitstream>& coeffs) {
  return scBernsteinSelect(std::span<const Bitstream* const>(borrowed(xCopies)),
                           std::span<const Bitstream* const>(borrowed(coeffs)));
}

double bernsteinValue(const std::vector<double>& b, double x) {
  if (b.empty()) throw std::invalid_argument("bernsteinValue: no coefficients");
  const int n = static_cast<int>(b.size()) - 1;
  double value = 0.0;
  double binom = 1.0;  // C(n, k), updated incrementally
  for (int k = 0; k <= n; ++k) {
    value += b[static_cast<std::size_t>(k)] * binom * std::pow(x, k) *
             std::pow(1.0 - x, n - k);
    binom = binom * (n - k) / (k + 1);
  }
  return value;
}

Bitstream scBernsteinEvaluate(RandomSource& src, double x,
                              const std::vector<double>& b, int bits,
                              std::size_t n) {
  if (b.size() < 2) throw std::invalid_argument("scBernsteinEvaluate: degree < 1");
  const int degree = static_cast<int>(b.size()) - 1;
  std::vector<Bitstream> xCopies;
  xCopies.reserve(static_cast<std::size_t>(degree));
  for (int j = 0; j < degree; ++j) {
    xCopies.push_back(generateSbsFromProb(src, x, bits, n));
  }
  std::vector<Bitstream> coeffs;
  coeffs.reserve(b.size());
  for (const double bk : b) {
    coeffs.push_back(generateSbsFromProb(src, bk, bits, n));
  }
  return scBernsteinSelect(xCopies, coeffs);
}

}  // namespace aimsc::sc
