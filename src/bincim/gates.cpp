#include "bincim/gates.hpp"

#include <algorithm>

namespace aimsc::bincim {

namespace {

// p_ slots: NOR with k ones is slot k, NOT with k ones is kNotSlot + k.
constexpr std::size_t kNotSlot = 3;
// drawsPerInput_ offsets of the three networks.
constexpr std::size_t kFullAdderInputs = 0;
constexpr std::size_t kNotInputs = 8;
constexpr std::size_t kAndInputs = 10;

// The gate networks, written once for every evaluator `g` (`g.nor(a, b)`
// and `g.inv(a)` evaluate one primitive).  Statement order is draw order
// and part of the output contract: AND inverts b before a, and XOR takes
// NOR(b, n1) before NOR(a, n1) — the order in which the nested calls of the
// original gate-by-gate engine were evaluated (arguments right to left).

template <class G>
std::uint32_t notNet(G& g, std::uint32_t a) {
  return g.inv(a);
}

template <class G>
std::uint32_t andNet(G& g, std::uint32_t a, std::uint32_t b) {
  const std::uint32_t nb = g.inv(b);
  const std::uint32_t na = g.inv(a);
  return g.nor(na, nb);
}

// 5-gate XOR: the classic 4-NOR network computes XNOR; a final inverter
// gives XOR.  n1 = NOR(a,b); xnor = NOR(NOR(a,n1), NOR(b,n1)).
template <class G>
std::uint32_t xorNet(G& g, std::uint32_t a, std::uint32_t b) {
  const std::uint32_t n1 = g.nor(a, b);
  const std::uint32_t bn = g.nor(b, n1);
  const std::uint32_t an = g.nor(a, n1);
  return g.inv(g.nor(an, bn));
}

template <class G>
MagicEngine::FullAdderOut fullAdderNet(G& g, std::uint32_t a, std::uint32_t b,
                                       std::uint32_t cin) {
  const std::uint32_t axb = xorNet(g, a, b);
  const std::uint32_t sum = xorNet(g, axb, cin);
  // carry = MAJ(a, b, cin) = OR(AND(a,b), AND(cin, a XOR b))
  const std::uint32_t t1 = andNet(g, a, b);
  const std::uint32_t t2 = andNet(g, cin, axb);
  return {sum, g.inv(g.nor(t1, t2))};
}

/// Evaluator counting the gates of a fault-free walk, and those of them
/// that draw (p > 0).
struct Counter {
  const std::array<double, 5>& p;
  std::uint8_t gates = 0;
  std::uint8_t draws = 0;
  std::uint32_t nor(std::uint32_t a, std::uint32_t b) {
    ++gates;
    draws += p[a + b] > 0.0 ? 1 : 0;
    return (a | b) ^ 1u;
  }
  std::uint32_t inv(std::uint32_t a) {
    ++gates;
    draws += p[kNotSlot + a] > 0.0 ? 1 : 0;
    return a ^ 1u;
  }
};

/// Generator stuck at one raw output: maps it through a distribution.
struct FixedRaw {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type raw;
  result_type operator()() const { return raw; }
};

}  // namespace

/// Evaluator that injects misdecisions: the gate-by-gate walk.
struct MagicEngine::Walker {
  MagicEngine& e;
  std::uint32_t nor(std::uint32_t a, std::uint32_t b) {
    return e.inject((a | b) ^ 1u, a + b);
  }
  std::uint32_t inv(std::uint32_t a) { return e.inject(a ^ 1u, kNotSlot + a); }
};

/// Generator over the look-ahead buffer: the distribution sees exactly the
/// raw outputs it would have taken from the engine's `mt19937_64`.
struct MagicEngine::Draws {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  MagicEngine& e;
  result_type operator()() { return e.takeDraw(); }
};

MagicEngine::MagicEngine(const reram::FaultModel* faultModel, std::uint64_t seed,
                         double faultScale)
    : faultModel_(faultModel), faultScale_(faultScale), eng_(seed) {}

void MagicEngine::setProtection(Protection p) {
  protection_ = p;
  copies_ = p == Protection::None ? 1 : p == Protection::Dmr ? 2 : 3;
}

void MagicEngine::freeze() {
  // Read once, inside the lane that first uses the engine (a cold model
  // runs its Monte-Carlo there, in parallel with the other lanes).
  frozen_ = true;
  if (faultModel_ != nullptr) {
    for (int ones = 0; ones <= 2; ++ones) {
      p_[static_cast<std::size_t>(ones)] =
          faultScale_ * faultModel_->misdecisionProb(reram::SlOp::Nor, ones, 2);
    }
    for (int ones = 0; ones <= 1; ++ones) {
      p_[kNotSlot + static_cast<std::size_t>(ones)] =
          faultScale_ * faultModel_->misdecisionProb(reram::SlOp::Not, ones, 1);
    }
  }
  const double pMax = *std::max_element(p_.begin(), p_.end());
  faultFree_ = !(pMax > 0.0);

  // Walk each network on every input: its gate count (the same for every
  // input) and the draws each input's walk takes.
  const auto count = [&](Net net, std::size_t offset, std::uint32_t inputs,
                         auto walk) {
    for (std::uint32_t in = 0; in < inputs; ++in) {
      Counter c{p_};
      walk(c, in);
      gatesPerNet_[static_cast<std::size_t>(net)] = c.gates;
      drawsPerInput_[offset + in] = c.draws;
    }
  };
  count(Net::FullAdder, kFullAdderInputs, 8, [](Counter& c, std::uint32_t in) {
    fullAdderNet(c, in & 1u, (in >> 1) & 1u, in >> 2);
  });
  count(Net::Not, kNotInputs, 2,
        [](Counter& c, std::uint32_t in) { notNet(c, in); });
  count(Net::And, kAndInputs, 4,
        [](Counter& c, std::uint32_t in) { andNet(c, in & 1u, in >> 1); });
  hitBound_ = faultFree_ ? 0 : largestRawBelow(pMax);
  nextHit_ = firstHit(pos_);
}

std::uint64_t MagicEngine::largestRawBelow(double p) {
  // The raw -> uniform map is non-decreasing (one raw output per draw), so
  // bisect on the distribution itself rather than on a formula for it.
  const auto below = [&](std::uint64_t raw) {
    FixedRaw g{raw};
    return unit_(g) < p;
  };
  std::uint64_t lo = 0;  // draws 0.0 < p
  std::uint64_t hi = std::mt19937_64::max();
  if (below(hi)) return hi;
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (below(mid) ? lo : hi) = mid;
  }
  return lo;
}

bool MagicEngine::screen(std::size_t input) {
  if (!frozen_) freeze();
  const std::size_t draws = drawsPerInput_[input] * copies_;
  if (kLookAhead - pos_ < draws) refill();
  // A draw above hitBound_ is >= every gate's p, so it cannot flip one.
  if (nextHit_ - pos_ < draws) return false;
  pos_ += draws;
  return true;
}

std::uint32_t MagicEngine::inject(std::uint32_t ideal, std::size_t slot) {
  const double p = p_[slot];
  Draws draws{*this};
  const auto once = [&] {
    ++gateOps_;
    return p > 0.0 && unit_(draws) < p ? ideal ^ 1u : ideal;
  };
  const std::uint32_t first = once();
  if (protection_ == Protection::None) return first;
  const std::uint32_t second = once();
  // DMR with retry: a second execution checks the first; on disagreement
  // a third one breaks the tie.
  if (protection_ == Protection::Dmr) return first == second ? first : once();
  // TMR: unconditional triple execution, majority vote.
  const std::uint32_t third = once();
  return (first & second) | (first & third) | (second & third);
}

std::uint64_t MagicEngine::takeDraw() {
  if (pos_ == kLookAhead) refill();
  const std::uint64_t raw = ahead_[pos_++];
  if (nextHit_ < pos_) nextHit_ = firstHit(pos_);
  return raw;
}

void MagicEngine::refill() {
  // Keep the unconsumed tail, top the buffer up from the generator.
  const std::size_t kept = kLookAhead - pos_;
  std::copy(ahead_.begin() + static_cast<std::ptrdiff_t>(pos_), ahead_.end(),
            ahead_.begin());
  for (std::size_t i = kept; i < kLookAhead; ++i) ahead_[i] = eng_();
  nextHit_ = nextHit_ < kLookAhead ? nextHit_ - pos_ : firstHit(kept);
  pos_ = 0;
}

std::size_t MagicEngine::firstHit(std::size_t from) const {
  while (from < kLookAhead && ahead_[from] > hitBound_) ++from;
  return from;
}

std::uint64_t MagicEngine::nextRawDraw() { return takeDraw(); }

MagicEngine::FullAdderOut MagicEngine::fullAdder(std::uint32_t a,
                                                 std::uint32_t b,
                                                 std::uint32_t cin) {
  if (screen(kFullAdderInputs + (a | b << 1 | cin << 2))) {
    chargeFaultFree(Net::FullAdder, 1);
    return {a ^ b ^ cin, (a & b) | (cin & (a ^ b))};
  }
  Walker w{*this};
  return fullAdderNet(w, a, b, cin);
}

std::uint32_t MagicEngine::notGate(std::uint32_t a) {
  if (screen(kNotInputs + a)) {
    chargeFaultFree(Net::Not, 1);
    return a ^ 1u;
  }
  Walker w{*this};
  return notNet(w, a);
}

std::uint32_t MagicEngine::andGate(std::uint32_t a, std::uint32_t b) {
  if (screen(kAndInputs + (a | b << 1))) {
    chargeFaultFree(Net::And, 1);
    return a & b;
  }
  Walker w{*this};
  return andNet(w, a, b);
}

}  // namespace aimsc::bincim
