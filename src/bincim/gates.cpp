#include "bincim/gates.hpp"

#include <algorithm>
#include <cmath>

#include "reliability/fault_rng.hpp"

namespace aimsc::bincim {

namespace {

// p_ slots: NOR with k ones is slot k, NOT with k ones is kNotSlot + k.
constexpr std::size_t kNotSlot = 3;
constexpr std::uint64_t kNone = ~std::uint64_t{0};

// The gate networks, written once for every evaluator `g` (`g.nor(a, b)`
// and `g.inv(a)` evaluate one primitive).  Statement order is execution
// order, so it fixes the position of every gate: AND inverts b before a,
// and XOR takes NOR(b, n1) before NOR(a, n1) — the order in which the
// nested calls of the original gate-by-gate engine were evaluated
// (arguments right to left).

template <class G>
constexpr std::uint32_t notNet(G& g, std::uint32_t a) {
  return g.inv(a);
}

template <class G>
constexpr std::uint32_t andNet(G& g, std::uint32_t a, std::uint32_t b) {
  const std::uint32_t nb = g.inv(b);
  const std::uint32_t na = g.inv(a);
  return g.nor(na, nb);
}

// 5-gate XOR: the classic 4-NOR network computes XNOR; a final inverter
// gives XOR.  n1 = NOR(a,b); xnor = NOR(NOR(a,n1), NOR(b,n1)).
template <class G>
constexpr std::uint32_t xorNet(G& g, std::uint32_t a, std::uint32_t b) {
  const std::uint32_t n1 = g.nor(a, b);
  const std::uint32_t bn = g.nor(b, n1);
  const std::uint32_t an = g.nor(a, n1);
  return g.inv(g.nor(an, bn));
}

template <class G>
constexpr MagicEngine::FullAdderOut fullAdderNet(G& g, std::uint32_t a,
                                                 std::uint32_t b,
                                                 std::uint32_t cin) {
  const std::uint32_t axb = xorNet(g, a, b);
  const std::uint32_t sum = xorNet(g, axb, cin);
  // carry = MAJ(a, b, cin) = OR(AND(a,b), AND(cin, a XOR b))
  const std::uint32_t t1 = andNet(g, a, b);
  const std::uint32_t t2 = andNet(g, cin, axb);
  return {sum, g.inv(g.nor(t1, t2))};
}

/// Evaluator counting the gates of a walk.
struct Counter {
  std::uint64_t gates = 0;
  constexpr std::uint32_t nor(std::uint32_t a, std::uint32_t b) {
    ++gates;
    return (a | b) ^ 1u;
  }
  constexpr std::uint32_t inv(std::uint32_t a) {
    ++gates;
    return a ^ 1u;
  }
};

template <class Walk>
constexpr std::uint64_t countGates(Walk walk) {
  Counter c;
  walk(c);
  return c.gates;
}

/// Primitives per network, in Net order.
constexpr std::array<std::uint64_t, 3> kGatesPerNet = {
    countGates([](Counter& c) { fullAdderNet(c, 0, 0, 0); }),
    countGates([](Counter& c) { notNet(c, 0); }),
    countGates([](Counter& c) { andNet(c, 0, 0); }),
};

/// A keyed uniform's top 53 bits.
std::uint64_t draw53(std::uint64_t key) {
  return reliability::mix64(key) >> 11;
}

}  // namespace

/// Evaluator that injects misdecisions: the gate-by-gate walk.
struct MagicEngine::Walker {
  MagicEngine& e;
  std::uint32_t nor(std::uint32_t a, std::uint32_t b) {
    return e.inject((a | b) ^ 1u, a + b);
  }
  std::uint32_t inv(std::uint32_t a) { return e.inject(a ^ 1u, kNotSlot + a); }
};

MagicEngine::MagicEngine(const reram::FaultModel* faultModel, std::uint64_t seed,
                         double faultScale)
    : faultModel_(faultModel),
      faultScale_(faultScale),
      seedKey_(reliability::mix64(seed)) {}

void MagicEngine::setProtection(Protection p) {
  protection_ = p;
  copies_ = p == Protection::None ? 1 : p == Protection::Dmr ? 2 : 3;
}

std::uint64_t MagicEngine::gates(Net net, std::uint64_t count) {
  return count * kGatesPerNet[static_cast<std::size_t>(net)];
}

void MagicEngine::freeze() {
  // Read once, inside the lane that first uses the engine (a cold model
  // runs its Monte-Carlo there, in parallel with the other lanes).
  frozen_ = true;
  if (faultModel_ != nullptr) {
    const auto scaled = [&](reram::SlOp op, int ones, int rows) {
      const double p = faultModel_->misdecisionProb(op, ones, rows);
      return std::clamp(faultScale_ * p, 0.0, 1.0);
    };
    for (int ones = 0; ones <= 2; ++ones) {
      p_[static_cast<std::size_t>(ones)] = scaled(reram::SlOp::Nor, ones, 2);
    }
    for (int ones = 0; ones <= 1; ++ones) {
      p_[kNotSlot + static_cast<std::size_t>(ones)] =
          scaled(reram::SlOp::Not, ones, 1);
    }
  }
  pMax_ = *std::max_element(p_.begin(), p_.end());
  if (!(pMax_ > 0.0)) return;  // no candidate, ever
  invLogQ_ = pMax_ < 1.0 ? 1.0 / std::log1p(-pMax_) : 0.0;
  for (std::size_t k = 0; k < p_.size(); ++k) {
    keepBelow_[k] =
        static_cast<std::uint64_t>(std::ceil(p_[k] / pMax_ * 0x1.0p53));
  }
  drawCandidate(pos_);
}

void MagicEngine::drawCandidate(std::uint64_t from) {
  // Candidate j's gap is Geometric(p_max) by inversion of the uniform keyed
  // seedKey + 2j, in (0, 1]; at p_max = 1 every execution is a candidate.
  const double u =
      static_cast<double>(draw53(seedKey_ + 2 * candidates_) + 1) * 0x1.0p-53;
  const double gap = pMax_ < 1.0 ? std::floor(std::log(u) * invLogQ_) : 0.0;
  nextCand_ = gap < 0x1.0p62 ? from + static_cast<std::uint64_t>(gap) : kNone;
}

std::uint64_t MagicEngine::nextCandidate() {
  if (!frozen_) freeze();
  return nextCand_;
}

bool MagicEngine::clearRun(std::uint64_t gates) {
  if (!frozen_) freeze();
  const std::uint64_t executions = gates * copies_;
  if (nextCand_ - pos_ < executions) return false;  // nextCand_ >= pos_
  pos_ += executions;
  gateOps_ += executions;
  return true;
}

bool MagicEngine::execute(std::size_t slot) {
  ++gateOps_;
  const std::uint64_t at = pos_++;
  if (at != nextCand_) return false;
  // Candidate j thins with the uniform keyed seedKey + 2j + 1.
  const bool flip =
      draw53(seedKey_ + 2 * candidates_ + 1) < keepBelow_[slot];
  ++candidates_;
  drawCandidate(at + 1);
  return flip;
}

std::uint32_t MagicEngine::inject(std::uint32_t ideal, std::size_t slot) {
  const auto once = [&] { return execute(slot) ? ideal ^ 1u : ideal; };
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

MagicEngine::FullAdderOut MagicEngine::fullAdder(std::uint32_t a,
                                                 std::uint32_t b,
                                                 std::uint32_t cin) {
  if (clearRun(gates(Net::FullAdder, 1))) {
    return {a ^ b ^ cin, (a & b) | (cin & (a ^ b))};
  }
  Walker w{*this};
  return fullAdderNet(w, a, b, cin);
}

std::uint32_t MagicEngine::notGate(std::uint32_t a) {
  if (clearRun(gates(Net::Not, 1))) return a ^ 1u;
  Walker w{*this};
  return notNet(w, a);
}

std::uint32_t MagicEngine::andGate(std::uint32_t a, std::uint32_t b) {
  if (clearRun(gates(Net::And, 1))) return a & b;
  Walker w{*this};
  return andNet(w, a, b);
}

}  // namespace aimsc::bincim
