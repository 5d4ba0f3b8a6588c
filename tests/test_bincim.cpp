// Binary CIM baseline: gate engine + AritPIM arithmetic (exactness when
// fault-free, gate-count complexity, fault vulnerability), the word-level
// engine checked execution for execution against a gate-by-gate oracle,
// and the flip rate of one faulty pattern against its probability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bincim/aritpim.hpp"
#include "reliability/fault_rng.hpp"

namespace aimsc::bincim {
namespace {

using Protection = MagicEngine::Protection;

TEST(MagicEngine, GateTruthTables) {
  MagicEngine e;
  EXPECT_EQ(e.notGate(0), 1u);
  EXPECT_EQ(e.notGate(1), 0u);
  for (std::uint32_t a = 0; a <= 1; ++a) {
    for (std::uint32_t b = 0; b <= 1; ++b) {
      EXPECT_EQ(e.andGate(a, b), a & b);
      for (std::uint32_t c = 0; c <= 1; ++c) {
        const auto fa = e.fullAdder(a, b, c);
        EXPECT_EQ(fa.sum, (a + b + c) % 2);
        EXPECT_EQ(fa.carry, (a + b + c) / 2);
      }
    }
  }
}

TEST(MagicEngine, GateOpsCounted) {
  for (const auto& [prot, copies] :
       {std::pair{Protection::None, 1u}, std::pair{Protection::Dmr, 2u},
        std::pair{Protection::Tmr, 3u}}) {
    MagicEngine e;
    e.setProtection(prot);
    e.notGate(1);
    EXPECT_EQ(e.gateOps(), copies);
    e.andGate(1, 0);  // NOR(NOT a, NOT b)
    EXPECT_EQ(e.gateOps(), 4 * copies);
    e.fullAdder(1, 0, 1);  // two 5-gate XORs, two ANDs, NOR + NOT
    EXPECT_EQ(e.gateOps(), 22 * copies);
    e.resetCounter();
    EXPECT_EQ(e.gateOps(), 0u);
  }
}

TEST(AritPim, AddExhaustive6Bit) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t a = 0; a < 64; a += 3) {
    for (std::uint32_t b = 0; b < 64; b += 5) {
      EXPECT_EQ(pim.add(a, b, 6), a + b);
    }
  }
}

TEST(AritPim, SubSaturatingExhaustive6Bit) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t a = 0; a < 64; a += 3) {
    for (std::uint32_t b = 0; b < 64; b += 5) {
      EXPECT_EQ(pim.subSaturating(a, b, 6), a >= b ? a - b : 0u);
    }
  }
}

TEST(AritPim, MulExhaustive5Bit) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t a = 0; a < 32; a += 3) {
    for (std::uint32_t b = 0; b < 32; b += 2) {
      EXPECT_EQ(pim.mul(a, b, 5), a * b);
    }
  }
}

TEST(AritPim, Mul8BitSampled) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t a = 0; a < 256; a += 37) {
    for (std::uint32_t b = 0; b < 256; b += 29) {
      EXPECT_EQ(pim.mul(a, b, 8), a * b);
    }
  }
}

TEST(AritPim, DivRestoringSampled) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t num = 0; num < 4096; num += 123) {
    for (std::uint32_t den = 1; den < 256; den += 31) {
      const std::uint32_t q = pim.div(num, den, 16, 8);
      EXPECT_EQ(q, std::min(num / den, 0xffffu)) << num << "/" << den;
    }
  }
}

TEST(AritPim, DivByZeroSaturates) {
  MagicEngine e;
  AritPim pim(e);
  EXPECT_EQ(pim.div(100, 0, 16, 8), 0xffffu);
}

TEST(AritPim, MattingStyleDivision) {
  // alpha = num * 255 / den clamped — the matting kernel path.
  MagicEngine e;
  AritPim pim(e);
  const std::uint32_t num16 = pim.mul(60, 255, 8);
  const std::uint32_t q = pim.div(num16, 120, 16, 8);
  EXPECT_EQ(q, 60u * 255u / 120u);
}

TEST(AritPim, ComplexityOrdering) {
  // Paper Sec. III-B: addition O(n), multiplication / division O(n^2).
  MagicEngine e;
  AritPim pim(e);
  e.resetCounter();
  pim.add(170, 85, 8);
  const auto addOps = e.gateOps();
  e.resetCounter();
  pim.mul(170, 85, 8);
  const auto mulOps = e.gateOps();
  e.resetCounter();
  pim.div(43350, 170, 16, 8);
  const auto divOps = e.gateOps();
  EXPECT_GT(mulOps, addOps * 5);
  EXPECT_GT(divOps, addOps * 5);
}

TEST(AritPim, FaultFreeGateCountsAreDataIndependent) {
  // 18n, 19n, 39n^2 and 19 * numBits * (denBits + 2), times the copies.
  for (const auto& [prot, copies] :
       {std::pair{Protection::None, 1u}, std::pair{Protection::Dmr, 2u},
        std::pair{Protection::Tmr, 3u}}) {
    MagicEngine e;
    e.setProtection(prot);
    AritPim pim(e);
    const auto cost = [&](auto op) {
      e.resetCounter();
      op();
      return e.gateOps();
    };
    for (const std::uint32_t x : {0u, 77u, 0xffffffffu}) {
      EXPECT_EQ(cost([&] { pim.add(x, 5, 9); }), 18u * 9 * copies);
      EXPECT_EQ(cost([&] { pim.subSaturating(x, 5, 10); }), 19u * 10 * copies);
      EXPECT_EQ(cost([&] { pim.mul(x, 200, 8); }), 39u * 64 * copies);
      EXPECT_EQ(cost([&] { pim.div(x, 3, 16, 8); }), 19u * 16 * 10 * copies);
    }
  }
}

TEST(AritPim, WidthValidation) {
  MagicEngine e;
  AritPim pim(e);
  EXPECT_THROW(pim.add(1, 1, 0), std::invalid_argument);
  EXPECT_THROW(pim.add(1, 1, 32), std::invalid_argument);
  EXPECT_THROW(pim.mul(1, 1, 16), std::invalid_argument);
  EXPECT_THROW(pim.div(1, 1, 25, 8), std::invalid_argument);
}

TEST(AritPim, FaultsCorruptHighBits) {
  // With gate faults enabled, binary results occasionally take large jumps
  // (MSB errors) — the mechanism behind the 47% quality drop in Table IV.
  reram::DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.2;
  reram::FaultModel fm(p, 4, 20000);
  MagicEngine e(&fm, 5);
  AritPim pim(e);
  int bigErrors = 0;
  for (int i = 0; i < 400; ++i) {
    const std::uint32_t r = pim.mul(200, 200, 8);
    const int err = std::abs(static_cast<int>(r) - 40000);
    if (err > 4096) ++bigErrors;  // an error in bit 12+
  }
  EXPECT_GT(bigErrors, 0);
}

TEST(AritPim, FaultFreeWithNullModel) {
  MagicEngine e(nullptr);
  AritPim pim(e);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(pim.mul(123, 45, 8), 123u * 45u);
}

// --- differential check against the gate-by-gate engine --------------------

// A pattern's misdecision probability as the engine uses it: scaled and
// clamped to [0, 1] (0 without a model).
double patternProb(const reram::FaultModel* model, double scale,
                   reram::SlOp op, int ones, int rows) {
  if (model == nullptr) return 0.0;
  return std::clamp(scale * model->misdecisionProb(op, ones, rows), 0.0, 1.0);
}

// p_max: the largest of the five gate patterns (NOR with 0/1/2 ones, NOT
// with 0/1).
double maxPatternProb(const reram::FaultModel* model, double scale) {
  double pMax = 0.0;
  for (int ones = 0; ones <= 2; ++ones) {
    pMax = std::max(pMax, patternProb(model, scale, reram::SlOp::Nor, ones, 2));
  }
  for (int ones = 0; ones <= 1; ++ones) {
    pMax = std::max(pMax, patternProb(model, scale, reram::SlOp::Not, ones, 1));
  }
  return pMax;
}

// The engine as a walk over every gate execution: one bool per primitive,
// probabilities read from the model at every gate, and the keyed
// candidate-and-thinning rule applied at each position, spelled out from
// its key layout.  Nested calls are written in the order the original
// engine evaluated them (arguments right to left): AND inverts b first,
// XOR takes NOR(b, n1) first.
class GateByGate {
 public:
  GateByGate(const reram::FaultModel* model, std::uint64_t seed, double scale,
             Protection prot)
      : model_(model), scale_(scale), prot_(prot),
        seedKey_(reliability::mix64(seed)),
        pMax_(maxPatternProb(model, scale)) {
    if (pMax_ > 0.0) placeCandidate(0);
  }

  bool nor(bool a, bool b) {
    return inject(!(a || b), reram::SlOp::Nor, (a ? 1 : 0) + (b ? 1 : 0), 2);
  }
  bool inv(bool a) { return inject(!a, reram::SlOp::Not, a ? 1 : 0, 1); }
  bool andGate(bool a, bool b) {
    const bool nb = inv(b);
    const bool na = inv(a);
    return nor(na, nb);
  }
  bool xorGate(bool a, bool b) {
    const bool n1 = nor(a, b);
    const bool x2 = nor(b, n1);
    const bool x1 = nor(a, n1);
    return inv(nor(x1, x2));
  }
  std::pair<bool, bool> fullAdder(bool a, bool b, bool cin) {
    const bool axb = xorGate(a, b);
    const bool sum = xorGate(axb, cin);
    const bool t1 = andGate(a, b);
    const bool t2 = andGate(cin, axb);
    return {sum, inv(nor(t1, t2))};
  }

  std::uint64_t gateOps() const { return gateOps_; }
  void resetCounter() { gateOps_ = 0; }
  std::uint64_t position() const { return pos_; }
  std::uint64_t nextCandidate() const { return nextCand_; }

 private:
  // Candidate j sits Geometric(p_max) executions after the previous one:
  // the inverse CDF of the uniform ((mix64(seedKey + 2j) >> 11) + 1) / 2^53.
  void placeCandidate(std::uint64_t from) {
    const double u =
        static_cast<double>((reliability::mix64(seedKey_ + 2 * candidates_) >>
                             11) + 1) / 9007199254740992.0;
    const double gap =
        pMax_ >= 1.0 ? 0.0
                     : std::floor(std::log(u) * (1.0 / std::log1p(-pMax_)));
    nextCand_ = from + static_cast<std::uint64_t>(gap);
  }
  bool once(bool ideal, double p) {
    ++gateOps_;
    const std::uint64_t at = pos_++;
    if (at != nextCand_) return ideal;
    // Candidate j flips when (mix64(seedKey + 2j + 1) >> 11) / 2^53 is
    // below p / p_max, in integers against ceil(p / p_max * 2^53).
    const std::uint64_t keep = static_cast<std::uint64_t>(
        std::ceil(p / pMax_ * 9007199254740992.0));
    const bool flip =
        (reliability::mix64(seedKey_ + 2 * candidates_ + 1) >> 11) < keep;
    ++candidates_;
    placeCandidate(at + 1);
    return flip ? !ideal : ideal;
  }
  bool inject(bool ideal, reram::SlOp op, int ones, int rows) {
    const double p = patternProb(model_, scale_, op, ones, rows);
    const bool first = once(ideal, p);
    if (prot_ == Protection::None) return first;
    if (prot_ == Protection::Dmr) {
      const bool second = once(ideal, p);
      if (first == second) return first;
      return once(ideal, p);
    }
    const bool second = once(ideal, p);
    const bool third = once(ideal, p);
    return (first && second) || (first && third) || (second && third);
  }

  const reram::FaultModel* model_;
  double scale_;
  Protection prot_;
  std::uint64_t seedKey_;
  double pMax_;
  std::uint64_t gateOps_ = 0;
  std::uint64_t pos_ = 0;
  std::uint64_t candidates_ = 0;
  std::uint64_t nextCand_ = ~std::uint64_t{0};
};

// AritPim as it was on the gate-by-gate engine (bit-vector operands).
class GateByGatePim {
 public:
  explicit GateByGatePim(GateByGate& g) : g_(g) {}

  std::uint32_t add(std::uint32_t a, std::uint32_t b, int bits) {
    const auto av = toBits(a, bits);
    const auto bv = toBits(b, bits);
    std::vector<bool> sum(static_cast<std::size_t>(bits) + 1);
    bool carry = false;
    for (std::size_t i = 0; i < av.size(); ++i) {
      const auto [s, c] = g_.fullAdder(av[i], bv[i], carry);
      sum[i] = s;
      carry = c;
    }
    sum.back() = carry;
    return fromBits(sum);
  }

  std::uint32_t subSaturating(std::uint32_t a, std::uint32_t b, int bits) {
    bool carry = true;
    const auto diff = subtract(toBits(a, bits), toBits(b, bits), carry);
    return carry ? fromBits(diff) : 0;
  }

  std::uint32_t mul(std::uint32_t a, std::uint32_t b, int bits) {
    std::uint32_t acc = 0;
    const int accBits = 2 * bits;
    for (int i = 0; i < bits; ++i) {
      std::uint32_t pp = 0;
      const bool bi = (b >> i) & 1u;
      for (int j = 0; j < bits; ++j) {
        if (g_.andGate(bi, (a >> j) & 1u)) pp |= std::uint32_t{1} << (i + j);
      }
      acc = add(acc, pp, accBits) & ((std::uint32_t{1} << accBits) - 1);
    }
    return acc;
  }

  std::uint32_t div(std::uint32_t num, std::uint32_t den, int numBits,
                    int denBits) {
    const std::uint32_t qMax = (std::uint32_t{1} << numBits) - 1;
    const int remBits = denBits + 2;
    std::uint32_t rem = 0;
    std::uint32_t q = 0;
    for (int i = numBits - 1; i >= 0; --i) {
      rem = (rem << 1) | ((num >> i) & 1u);
      rem &= (std::uint32_t{1} << remBits) - 1;
      bool carry = true;
      const auto diff =
          subtract(toBits(rem, remBits), toBits(den, remBits), carry);
      if (carry) {
        rem = fromBits(diff);
        q |= std::uint32_t{1} << i;
      }
    }
    if (den == 0) return qMax;
    return q > qMax ? qMax : q;
  }

 private:
  static std::vector<bool> toBits(std::uint32_t v, int bits) {
    std::vector<bool> out(static_cast<std::size_t>(bits));
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = (v >> i) & 1u;
    return out;
  }
  static std::uint32_t fromBits(const std::vector<bool>& bits) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) v |= std::uint32_t{1} << i;
    }
    return v;
  }
  // a + NOT(b) + carry, NOT then full adder per bit.
  std::vector<bool> subtract(const std::vector<bool>& av,
                             const std::vector<bool>& bv, bool& carry) {
    std::vector<bool> diff(av.size());
    for (std::size_t i = 0; i < av.size(); ++i) {
      const bool nb = g_.inv(bv[i]);
      const auto [s, c] = g_.fullAdder(av[i], nb, carry);
      diff[i] = s;
      carry = c;
    }
    return diff;
  }

  GateByGate& g_;
};

// Operands mixing zero, in-width, just-over-width and full 32-bit words.
std::uint32_t operand(std::mt19937& rng, int bits) {
  const std::uint32_t r = static_cast<std::uint32_t>(rng());
  switch (r % 5) {
    case 0: return 0;
    case 1: return static_cast<std::uint32_t>(rng());
    case 2: return static_cast<std::uint32_t>(rng()) & ((4u << bits) - 1);
    default: return static_cast<std::uint32_t>(rng()) & ((1u << bits) - 1);
  }
}

struct Setting {
  const char* name;
  const reram::FaultModel* model;
  double scale;
};

// Fault-free to p >= 1: no model, a zero scale, the Table IV corner at four
// scales, 3x the HRS spread (at x4 the largest probability clamps to 1, so
// every execution is a candidate) and a corner where all five patterns
// misdecide.
const std::vector<Setting>& allSettings() {
  static const reram::DeviceParams tableIV = [] {
    reram::DeviceParams d;  // apps::defaultFaultyDevice()
    d.sigmaLrs = 0.15;
    d.sigmaHrs = 1.20;
    return d;
  }();
  static const reram::FaultModel tableIVModel(tableIV, 0x7ab1e, 20000);
  static const reram::FaultModel hotModel(
      [] {
        reram::DeviceParams d = tableIV;
        d.sigmaHrs *= 3;
        return d;
      }(),
      0x4e7, 20000);
  static const reram::FaultModel wideModel(
      [] {
        reram::DeviceParams d = tableIV;
        d.sigmaLrs = 0.8;
        d.sigmaHrs = 2.4;
        return d;
      }(),
      0x1de, 20000);
  static const std::vector<Setting> settings = {
      {"no model", nullptr, 1.0},
      {"Table IV x0", &tableIVModel, 0.0},
      {"Table IV x0.25", &tableIVModel, 0.25},
      {"Table IV x0.05", &tableIVModel, 0.05},
      {"Table IV x0.5", &tableIVModel, 0.5},
      {"3x HRS x0.25", &hotModel, 0.25},
      {"3x HRS x4 (p >= 1)", &hotModel, 4.0},
      {"wide LRS+HRS x0.25", &wideModel, 0.25},
  };
  return settings;
}

TEST(AritPimDifferential, MatchesGateByGateWalk) {
  constexpr int kAddWidths[] = {8, 9, 10, 16, 17};
  constexpr int kMulWidths[] = {8, 9, 10};

  for (const Setting& s : allSettings()) {
    for (const Protection prot :
         {Protection::None, Protection::Dmr, Protection::Tmr}) {
      const std::uint64_t seed = 0xd1ff + static_cast<std::uint64_t>(prot);
      MagicEngine engine(s.model, seed, s.scale);
      engine.setProtection(prot);
      AritPim pim(engine);
      GateByGate oracle(s.model, seed, s.scale, prot);
      GateByGatePim want(oracle);

      std::mt19937 rng(0x0a11 + static_cast<unsigned>(prot));
      for (int step = 0; step < 160; ++step) {
        std::uint32_t got = 0;
        std::uint32_t expected = 0;
        const int kind = static_cast<int>(rng() % 5);
        const int w = kind >= 2 ? kMulWidths[rng() % 3] : kAddWidths[rng() % 5];
        const std::uint32_t a = operand(rng, w);
        const std::uint32_t b = operand(rng, w);
        switch (kind) {
          case 0:
            got = pim.add(a, b, w);
            expected = want.add(a, b, w);
            break;
          case 1:
            got = pim.subSaturating(a, b, w);
            expected = want.subSaturating(a, b, w);
            break;
          case 2:
            got = pim.mul(a, b, w);
            expected = want.mul(a, b, w);
            break;
          case 3: {  // the matting divider: 16-bit numerator, 8-bit den
            const std::uint32_t num = operand(rng, 16);
            const std::uint32_t den = operand(rng, 8);
            got = pim.div(num, den, 16, 8);
            expected = want.div(num, den, 16, 8);
            break;
          }
          default:
            got = pim.div(a, b, w, w - 1);
            expected = want.div(a, b, w, w - 1);
            break;
        }
        ASSERT_EQ(got, expected) << s.name << " prot=" << static_cast<int>(prot)
                                 << " step=" << step << " kind=" << kind;
        ASSERT_EQ(engine.gateOps(), oracle.gateOps())
            << s.name << " prot=" << static_cast<int>(prot) << " step=" << step;
        ASSERT_EQ(engine.position(), oracle.position())
            << s.name << " prot=" << static_cast<int>(prot) << " step=" << step;
        ASSERT_EQ(engine.nextCandidate(), oracle.nextCandidate())
            << s.name << " prot=" << static_cast<int>(prot) << " step=" << step;
        if (step % 40 == 39) {  // clears the ledger, never the position
          engine.resetCounter();
          oracle.resetCounter();
        }
      }
    }
  }
}

TEST(AritPimDifferential, NetworksMatchGateByGateWalk) {
  // The three networks on their own, every input: clear runs and walks
  // interleave.
  for (const Setting& s : allSettings()) {
    for (const Protection prot :
         {Protection::None, Protection::Dmr, Protection::Tmr}) {
      MagicEngine engine(s.model, 0x5a7e, s.scale);
      engine.setProtection(prot);
      GateByGate oracle(s.model, 0x5a7e, s.scale, prot);
      for (int round = 0; round < 100; ++round) {
        for (std::uint32_t in = 0; in < 8; ++in) {
          const std::uint32_t a = in & 1u;
          const std::uint32_t b = (in >> 1) & 1u;
          const std::uint32_t c = in >> 2;
          const auto fa = engine.fullAdder(a, b, c);
          const auto [sum, carry] = oracle.fullAdder(a, b, c);
          ASSERT_EQ(fa.sum, sum ? 1u : 0u) << s.name;
          ASSERT_EQ(fa.carry, carry ? 1u : 0u) << s.name;
          ASSERT_EQ(engine.andGate(a, b), oracle.andGate(a, b) ? 1u : 0u)
              << s.name;
          ASSERT_EQ(engine.notGate(c), oracle.inv(c) ? 1u : 0u) << s.name;
          ASSERT_EQ(engine.gateOps(), oracle.gateOps()) << s.name;
          ASSERT_EQ(engine.position(), oracle.position()) << s.name;
          ASSERT_EQ(engine.nextCandidate(), oracle.nextCandidate()) << s.name;
        }
      }
    }
  }
}

TEST(MagicEngineFaults, FlipRateMatchesPatternProbability) {
  // N unprotected inverters on one input are N executions of one pattern:
  // their flips must be Binomial(N, p).  The oracle shares the candidate
  // and thinning rule, so this is the check that the rule itself is right.
  constexpr std::uint64_t kN = 2000000;
  int thinned = 0;
  for (const Setting& s : allSettings()) {
    if (s.model == nullptr) continue;
    const double pMax = maxPatternProb(s.model, s.scale);
    for (std::uint32_t a = 0; a <= 1; ++a) {
      const double p = patternProb(s.model, s.scale, reram::SlOp::Not,
                                   static_cast<int>(a), 1);
      if (p > 0.0 && p < pMax) ++thinned;
      MagicEngine engine(s.model, 0xf11b + a, s.scale);
      std::uint64_t flips = 0;
      for (std::uint64_t i = 0; i < kN; ++i) {
        flips += engine.notGate(a) == a ? 1 : 0;
      }
      const double mean = static_cast<double>(kN) * p;
      const double sd = std::sqrt(mean * (1.0 - p));
      EXPECT_NEAR(static_cast<double>(flips), mean, 5.0 * sd + 1.0)
          << s.name << " NOT(" << a << ") p=" << p;
    }
  }
  EXPECT_GT(thinned, 0);  // some pattern flips below p_max: thinning ran
}

}  // namespace
}  // namespace aimsc::bincim
