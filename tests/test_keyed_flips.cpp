// Keyed misdecision flips of Probabilistic scouting: over 10^4 sensing
// steps on random operands, at the Table IV corner and at a
// high-variability corner (p up to ~0.5), every pattern class flips
// Binomial(c, p) columns, at uniformly distributed ranks; p = 0 flips
// nothing and p = 1 the whole class; and the flips are a pure function of
// the seed and the operand sequence.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "reram/fault_model.hpp"
#include "reram/scouting.hpp"

namespace aimsc::reram {
namespace {

constexpr std::size_t kWidth = 256;
constexpr int kSteps = 10000;
constexpr std::size_t kBuckets = 16;
// chi^2 with 16 degrees of freedom exceeds 46 with probability ~1e-4.
constexpr double kChi2Bound = 46.0;

sc::Bitstream randomStream(std::mt19937_64& eng) {
  sc::Bitstream s(kWidth);
  for (std::uint64_t& w : s.mutableWords()) w = eng();
  return s;
}

/// Per-class flip tallies of one op over many steps.
struct Tally {
  std::array<double, 4> columns{};   ///< class columns seen
  std::array<double, 4> p{};         ///< the class's probability
  std::array<double, 4> flips{};
  std::array<double, kBuckets> expectedByRank{};  ///< sum of p per bucket
  std::array<double, kBuckets> flipsByRank{};
};

/// Senses \p op over kSteps steps of random operands (NOT a, b when
/// \p complementFirst) and tallies, per class, its columns and flips, and
/// per rank bucket (rank * kBuckets / class count) flips against p.
Tally tallyFlips(ScoutingLogic& sl, SlOp op, int rows,
                 std::uint64_t operandSeed, bool complementFirst = false) {
  std::mt19937_64 eng(operandSeed);
  Tally t;
  for (int k = 0; k <= rows; ++k) {
    t.p[static_cast<std::size_t>(k)] = sl.misdecisionProb(op, k, rows);
  }
  std::vector<sc::Bitstream> in(static_cast<std::size_t>(rows));
  std::vector<const sc::Bitstream*> ptrs(in.size());
  sc::Bitstream out;
  std::vector<int> cls(kWidth);
  for (int step = 0; step < kSteps; ++step) {
    for (std::size_t r = 0; r < in.size(); ++r) {
      in[r] = randomStream(eng);
      ptrs[r] = &in[r];
    }
    if (complementFirst) {
      sl.op2NotAInto(op, out, in[0], in[1]);
    } else {
      sl.opInto(op, out, ptrs);
    }
    std::array<std::size_t, 4> count{};
    for (std::size_t c = 0; c < kWidth; ++c) {
      int ones = 0;
      for (std::size_t r = 0; r < in.size(); ++r) {
        ones += in[r].get(c) != (r == 0 && complementFirst) ? 1 : 0;
      }
      cls[c] = ones;
      ++count[static_cast<std::size_t>(ones)];
    }
    std::array<std::size_t, 4> rank{};
    for (std::size_t c = 0; c < kWidth; ++c) {
      const auto k = static_cast<std::size_t>(cls[c]);
      const std::size_t bucket = rank[k]++ * kBuckets / count[k];
      const bool flipped = out.get(c) != slIdeal(op, cls[c], rows);
      t.columns[k] += 1.0;
      t.flips[k] += flipped ? 1.0 : 0.0;
      if (t.p[k] > 0.0 && t.p[k] < 1.0) {
        t.expectedByRank[bucket] += t.p[k];
        t.flipsByRank[bucket] += flipped ? 1.0 : 0.0;
      }
    }
  }
  return t;
}

/// Checks every class's flip count against Binomial(columns, p) within
/// 4 sigma and the pooled rank buckets against uniform placement.
void expectKeyedBinomial(const Tally& t, int rows, const std::string& what) {
  for (int k = 0; k <= rows; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const double mean = t.columns[i] * t.p[i];
    const double sd = std::sqrt(mean * (1.0 - t.p[i]));
    EXPECT_NEAR(t.flips[i], mean, 4.0 * sd + 1e-9)
        << what << " class " << k << " p=" << t.p[i];
  }
  double chi2 = 0.0;
  double expected = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    expected += t.expectedByRank[b];
    if (t.expectedByRank[b] <= 0.0) continue;
    const double d = t.flipsByRank[b] - t.expectedByRank[b];
    chi2 += d * d / t.expectedByRank[b];
  }
  if (expected >= 20.0 * kBuckets) {  // enough flips per bucket to judge
    EXPECT_LT(chi2, kChi2Bound) << what << ": flipped ranks not uniform";
  }
}

struct OpCase {
  SlOp op;
  int rows;
  bool complementFirst;
  const char* name;
};

// The ops the apps sense: IMSNG's AND and NOR(NOT flag, plane), MAJ3,
// XOR, OR and NOT.
constexpr OpCase kOps[] = {
    {SlOp::And, 2, false, "AND"},   {SlOp::Nor, 2, true, "NOR(NOT a, b)"},
    {SlOp::Nor, 2, false, "NOR"},   {SlOp::Or, 2, false, "OR"},
    {SlOp::Xor, 2, false, "XOR"},   {SlOp::Maj3, 3, false, "MAJ3"},
    {SlOp::Not, 1, false, "NOT"},
};

void checkCorner(const DeviceParams& device, const char* corner,
                 double minPeak) {
  const FaultModel fm(device, 0xf417, 20000);
  CrossbarArray arr(4, kWidth, device);
  double peak = 0.0;
  for (const OpCase& c : kOps) {
    ScoutingLogic sl(arr, ScoutingLogic::Fidelity::Probabilistic, &fm, 0x5c);
    const Tally t = tallyFlips(sl, c.op, c.rows, 0x0be7, c.complementFirst);
    for (const double p : t.p) peak = std::max(peak, p);
    expectKeyedBinomial(t, c.rows, std::string(corner) + " " + c.name);
    EXPECT_EQ(sl.steps(), static_cast<std::uint64_t>(kSteps));
  }
  EXPECT_GE(peak, minPeak) << corner;
}

TEST(KeyedFlips, BinomialPerClassAtTableIvCorner) {
  checkCorner(apps::defaultFaultyDevice(), "Table IV", 5e-3);
}

TEST(KeyedFlips, BinomialPerClassAtHighVariability) {
  DeviceParams wide = apps::defaultFaultyDevice();
  wide.sigmaLrs = 0.8;
  wide.sigmaHrs = 2.4;
  checkCorner(wide, "wide", 0.45);
}

TEST(KeyedFlips, ZeroProbabilityFlipsNothingAndOneFlipsTheClass) {
  // HRS cells barely above the LRS resistance, with a hair of spread: a
  // NOR with no '1' always senses an overcurrent (p = 1), and the other
  // two classes always sense correctly (p = 0).
  DeviceParams leaky;
  leaky.rLrsOhm = 10e3;
  leaky.rHrsOhm = 10.1e3;
  leaky.sigmaLrs = 1e-6;
  leaky.sigmaHrs = 1e-6;
  const FaultModel fm(leaky, 3, 2000);
  ASSERT_EQ(fm.misdecisionProb(SlOp::Nor, 0, 2), 1.0);
  ASSERT_EQ(fm.misdecisionProb(SlOp::Nor, 1, 2), 0.0);
  ASSERT_EQ(fm.misdecisionProb(SlOp::Nor, 2, 2), 0.0);
  CrossbarArray arr(4, kWidth, leaky);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::Probabilistic, &fm, 9);
  std::mt19937_64 eng(4);
  sc::Bitstream out;
  for (int step = 0; step < 200; ++step) {
    const sc::Bitstream a = randomStream(eng);
    const sc::Bitstream b = randomStream(eng);
    sl.op2Into(SlOp::Nor, out, a, b);
    // Every no-'1' column flips from 1 to 0; nothing else moves.
    EXPECT_EQ(out.popcount(), 0u) << "step " << step;
  }

  const FaultModel ideal(DeviceParams::ideal(), 1, 1000);
  ScoutingLogic exact(arr, ScoutingLogic::Fidelity::Probabilistic, &ideal, 9);
  for (int step = 0; step < 200; ++step) {
    const sc::Bitstream a = randomStream(eng);
    const sc::Bitstream b = randomStream(eng);
    const sc::Bitstream c = randomStream(eng);
    exact.op3Into(SlOp::Maj3, out, a, b, c);
    EXPECT_EQ(out, sc::Bitstream::majority(a, b, c)) << "step " << step;
  }
}

TEST(KeyedFlips, SameSeedAndOperandsGiveSameStreams) {
  const DeviceParams device = apps::defaultFaultyDevice();
  const FaultModel fm(device, 0xf417, 20000);
  CrossbarArray arr(4, kWidth, device);
  ScoutingLogic first(arr, ScoutingLogic::Fidelity::Probabilistic, &fm, 0x5c);
  ScoutingLogic twin(arr, ScoutingLogic::Fidelity::Probabilistic, &fm, 0x5c);
  ScoutingLogic other(arr, ScoutingLogic::Fidelity::Probabilistic, &fm, 0x5d);
  std::mt19937_64 eng(11);
  sc::Bitstream x;
  sc::Bitstream y;
  sc::Bitstream z;
  int differing = 0;
  for (int step = 0; step < 2000; ++step) {
    const sc::Bitstream a = randomStream(eng);
    const sc::Bitstream b = randomStream(eng);
    const sc::Bitstream c = randomStream(eng);
    first.op3Into(SlOp::Maj3, x, a, b, c);
    twin.op3Into(SlOp::Maj3, y, a, b, c);
    other.op3Into(SlOp::Maj3, z, a, b, c);
    ASSERT_EQ(x, y) << "step " << step;
    differing += x != z ? 1 : 0;
  }
  EXPECT_GT(differing, 100);
}

}  // namespace
}  // namespace aimsc::reram
