// The scouting engine's binomial draw against std::binomial_distribution:
// twin mt19937_64 engines must yield the same count and then the same next
// raw output, for every t = 0..256 on the probabilities faulty sensing uses,
// on both sides of the p = 1/2 mirror and on both sides of the t·p = 8
// switch to the library's rejection branch.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "reram/binomial.hpp"
#include "reram/fault_model.hpp"

namespace aimsc::reram {
namespace {

/// Draws \p draws binomials per t = 0..256 at \p p from both sides and
/// returns a description of the first disagreement ("" when none).
std::string firstMismatch(double p, std::uint64_t seed, int draws = 4) {
  const double q = binomialWaitingQ(p);
  std::mt19937_64 ours(seed);
  std::mt19937_64 ref(seed);
  for (std::size_t t = 0; t <= 256; ++t) {
    for (int d = 0; d < draws; ++d) {
      // A fresh library distribution per draw, as the engine used to build.
      std::binomial_distribution<std::size_t> binom(t, p);
      const std::size_t want = binom(ref);
      const std::size_t got = drawBinomial(ours, t, p, q);
      if (got != want || ours() != ref()) {
        return "p=" + std::to_string(p) + " t=" + std::to_string(t) +
               " draw " + std::to_string(d) + ": " + std::to_string(got) +
               " vs " + std::to_string(want);
      }
    }
  }
  return "";
}

TEST(BinomialDraw, MatchesLibraryOnTableIvClasses) {
  // Every class probability the Table IV mats sense with: IMSNG's AND and
  // NOR, the MAJ3 of compositing and bilinear, XOR and OR of filters and
  // morphology.
  const FaultModel fm(apps::defaultFaultyDevice(), 0xf417, 20000);
  std::vector<double> ps;
  for (const SlOp op : {SlOp::And, SlOp::Nor, SlOp::Or, SlOp::Xor}) {
    for (int ones = 0; ones <= 2; ++ones) {
      ps.push_back(fm.misdecisionProb(op, ones, 2));
    }
  }
  for (int ones = 0; ones <= 3; ++ones) {
    ps.push_back(fm.misdecisionProb(SlOp::Maj3, ones, 3));
  }
  int positive = 0;
  for (const double p : ps) {
    if (p > 0.0) ++positive;
    EXPECT_EQ(firstMismatch(p, 0x5c), "");
  }
  EXPECT_GT(positive, 0);  // the corner really misdecides
}

TEST(BinomialDraw, MatchesLibraryAcrossTheMirror) {
  for (const double p : {0.0, 0.3, 0.5, 0.7, 0.97, 1.0}) {
    EXPECT_EQ(firstMismatch(p, 0xb1), "");
  }
}

TEST(BinomialDraw, MatchesLibraryAtTheRejectionSwitch) {
  // For each t >= 16 the largest p with t·p < 8 and the smallest with
  // t·p >= 8, and their mirrors: the draws straddle the branch switch.
  std::mt19937_64 ours(0x8);
  std::mt19937_64 ref(0x8);
  for (std::size_t t = 16; t <= 256; ++t) {
    const double td = static_cast<double>(t);
    double below = 8.0 / td;
    while (td * below >= 8) below = std::nextafter(below, 0.0);
    double above = below;
    while (td * above < 8) above = std::nextafter(above, 1.0);
    for (const double p : {below, above, 1.0 - below, 1.0 - above}) {
      std::binomial_distribution<std::size_t> binom(t, p);
      const std::size_t want = binom(ref);
      ASSERT_EQ(drawBinomial(ours, t, p, binomialWaitingQ(p)), want)
          << "t=" << t << " p=" << p;
      ASSERT_EQ(ours(), ref()) << "t=" << t << " p=" << p;
    }
  }
}

}  // namespace
}  // namespace aimsc::reram
