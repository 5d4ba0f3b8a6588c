#include "bincim/aritpim.hpp"

#include <stdexcept>

namespace aimsc::bincim {

namespace {

std::uint32_t lowMask(int bits) { return (std::uint32_t{1} << bits) - 1; }

std::uint64_t width(int bits) { return static_cast<std::uint64_t>(bits); }

using Net = MagicEngine::Net;

}  // namespace

std::uint32_t AritPim::add(std::uint32_t a, std::uint32_t b, int bits) {
  if (bits < 1 || bits > 31) throw std::invalid_argument("AritPim::add: bad width");
  a &= lowMask(bits);
  b &= lowMask(bits);
  if (engine_.clearRun(MagicEngine::gates(Net::FullAdder, width(bits)))) {
    return a + b;
  }
  std::uint32_t sum = 0;
  std::uint32_t carry = 0;
  for (int i = 0; i < bits; ++i) {
    const auto fa = engine_.fullAdder((a >> i) & 1u, (b >> i) & 1u, carry);
    sum |= fa.sum << i;
    carry = fa.carry;
  }
  return sum | carry << bits;
}

/// \p bits-wide a + NOT(b) + 1 (two's complement); the carry out, 1 when
/// a >= b, lands at bit \p bits.  Operands must already fit \p bits.
std::uint32_t AritPim::subtract(std::uint32_t a, std::uint32_t b, int bits) {
  if (engine_.clearRun(MagicEngine::gates(Net::Not, width(bits)) +
                       MagicEngine::gates(Net::FullAdder, width(bits)))) {
    return a + (~b & lowMask(bits)) + 1;
  }
  std::uint32_t diff = 0;
  std::uint32_t carry = 1;  // +1 of the two's complement
  for (int i = 0; i < bits; ++i) {
    const std::uint32_t nb = engine_.notGate((b >> i) & 1u);
    const auto fa = engine_.fullAdder((a >> i) & 1u, nb, carry);
    diff |= fa.sum << i;
    carry = fa.carry;
  }
  return diff | carry << bits;
}

std::uint32_t AritPim::subSaturating(std::uint32_t a, std::uint32_t b, int bits) {
  if (bits < 1 || bits > 31) throw std::invalid_argument("AritPim::sub: bad width");
  const std::uint32_t diff = subtract(a & lowMask(bits), b & lowMask(bits), bits);
  // carry == 0 -> borrow -> negative -> clamp to 0.
  return (diff >> bits) != 0 ? diff & lowMask(bits) : 0;
}

std::uint32_t AritPim::mul(std::uint32_t a, std::uint32_t b, int bits) {
  if (bits < 1 || bits > 15) throw std::invalid_argument("AritPim::mul: bad width");
  // `bits` rows, each `bits` ANDs and a 2*bits-wide add.
  const std::uint64_t n = width(bits);
  if (engine_.clearRun(MagicEngine::gates(Net::And, n * n) +
                       MagicEngine::gates(Net::FullAdder, n * 2 * n))) {
    return (a & lowMask(bits)) * (b & lowMask(bits));
  }
  std::uint32_t acc = 0;
  const int accBits = 2 * bits;
  for (int i = 0; i < bits; ++i) {
    // Partial product: AND of b's bit i with every bit of a, shifted by i.
    std::uint32_t pp = 0;
    const std::uint32_t bi = (b >> i) & 1u;
    for (int j = 0; j < bits; ++j) {
      pp |= engine_.andGate(bi, (a >> j) & 1u) << (i + j);
    }
    acc = add(acc, pp, accBits) & lowMask(accBits);
  }
  return acc;
}

std::uint32_t AritPim::div(std::uint32_t num, std::uint32_t den, int numBits,
                           int denBits) {
  if (numBits < 1 || numBits > 24 || denBits < 1 || denBits > 24) {
    throw std::invalid_argument("AritPim::div: bad width");
  }
  const std::uint32_t qMax = lowMask(numBits);
  // Restoring division over numBits quotient bits; the remainder register
  // is denBits + 2 wide.  A zero denominator saturates (matches the
  // catastrophic behaviour the paper observes for faulty integer division
  // in matting).
  const int remBits = denBits + 2;
  const std::uint32_t remMask = lowMask(remBits);
  const std::uint32_t d = den & remMask;
  std::uint32_t rem = 0;
  std::uint32_t q = 0;
  for (int i = numBits - 1; i >= 0; --i) {
    rem = ((rem << 1) | ((num >> i) & 1u)) & remMask;
    const std::uint32_t diff = subtract(rem, d, remBits);
    if ((diff >> remBits) != 0) {  // rem >= den: commit, set quotient bit
      rem = diff & remMask;
      q |= std::uint32_t{1} << i;
    }
  }
  if (den == 0) return qMax;
  return q > qMax ? qMax : q;
}

}  // namespace aimsc::bincim
