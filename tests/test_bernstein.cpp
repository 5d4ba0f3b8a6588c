// Bernstein-polynomial stochastic synthesis (extension module).
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "sc/bernstein.hpp"
#include "sc/sng.hpp"

namespace aimsc::sc {
namespace {

TEST(BernsteinValue, ConstantsAndIdentity) {
  // b_k = c for all k -> B_n = c; b_k = k/n -> B_n(x) = x.
  EXPECT_NEAR(bernsteinValue({0.3, 0.3, 0.3}, 0.7), 0.3, 1e-12);
  EXPECT_NEAR(bernsteinValue({0.0, 0.5, 1.0}, 0.7), 0.7, 1e-12);
  EXPECT_NEAR(bernsteinValue({0.0, 0.5, 1.0}, 0.2), 0.2, 1e-12);
}

TEST(BernsteinValue, SquareExactAtItsDegree) {
  // x^2 = B_2 with b = {0, 0, 1}?  B_2 = 2x(1-x)*0 + x^2*1 ... b={0,0,1}
  // gives exactly x^2.
  for (const double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(bernsteinValue({0.0, 0.0, 1.0}, x), x * x, 1e-12);
  }
}

TEST(BernsteinValue, RejectsEmpty) {
  EXPECT_THROW(bernsteinValue({}, 0.5), std::invalid_argument);
}

TEST(BernsteinCoefficients, SampleTheFunction) {
  const auto b = bernsteinCoefficientsOf([](double t) { return t * t; }, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_DOUBLE_EQ(b[2], 0.25);
  EXPECT_DOUBLE_EQ(b[4], 1.0);
}

TEST(BernsteinSelect, Validation) {
  Mt19937Source src(1);
  std::vector<Bitstream> xs{generateSbsFromProb(src, 0.5, 8, 64)};
  std::vector<Bitstream> cs{generateSbsFromProb(src, 0.5, 8, 64)};
  EXPECT_THROW(scBernsteinSelect({}, cs), std::invalid_argument);
  EXPECT_THROW(scBernsteinSelect(xs, cs), std::invalid_argument);  // need 2
  std::vector<Bitstream> csBad{generateSbsFromProb(src, 0.5, 8, 64),
                               generateSbsFromProb(src, 0.5, 8, 32)};
  EXPECT_THROW(scBernsteinSelect(xs, csBad), std::invalid_argument);
}

TEST(BernsteinSelect, DegreeOneIsMux) {
  // n = 1: out = x ? b1 : b0 — the scaled-addition MUX.
  Mt19937Source src(2);
  const Bitstream x = generateSbsFromProb(src, 0.5, 8, 64);
  const Bitstream b0 = generateSbsFromProb(src, 0.0, 8, 64);
  const Bitstream b1 = generateSbsFromProb(src, 1.0, 8, 64);
  const Bitstream out = scBernsteinSelect({x}, {b0, b1});
  EXPECT_EQ(out, x);
}

TEST(BernsteinSelect, WordLevelSelectMatchesBitLoop) {
  // The bit loop the word-level select replaced is the oracle: per column,
  // count the copies' ones and take that coefficient's bit.
  std::mt19937_64 eng(9);
  for (const std::size_t degree : {1, 2, 3, 4, 5, 6}) {
    for (const std::size_t width : {1, 63, 64, 256, 1000}) {
      std::vector<Bitstream> copies(degree, Bitstream(width));
      std::vector<Bitstream> coeffs(degree + 1, Bitstream(width));
      for (auto* set : {&copies, &coeffs}) {
        for (Bitstream& s : *set) {
          for (std::uint64_t& w : s.mutableWords()) w = eng();
          s.clearTail();
        }
      }
      Bitstream want(width);
      for (std::size_t i = 0; i < width; ++i) {
        std::size_t ones = 0;
        for (const Bitstream& c : copies) ones += c.get(i) ? 1 : 0;
        if (coeffs[ones].get(i)) want.set(i, true);
      }
      EXPECT_EQ(scBernsteinSelect(copies, coeffs), want)
          << "degree " << degree << " width " << width;
    }
  }
}

class BernsteinAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(BernsteinAccuracy, SquaresTrackExactValue) {
  const double x = GetParam();
  Mt19937Source src(42);
  const Bitstream out =
      scBernsteinEvaluate(src, x, {0.0, 0.0, 1.0}, 8, 16384);
  EXPECT_NEAR(out.value(), x * x, 0.03) << "x=" << x;
}

TEST_P(BernsteinAccuracy, GammaCurveDegree4) {
  const double x = GetParam();
  const double gamma = 2.2;
  Mt19937Source src(43);
  const auto b = bernsteinCoefficientsOf(
      [gamma](double t) { return std::pow(t, gamma); }, 4);
  const Bitstream out = scBernsteinEvaluate(src, x, b, 8, 16384);
  // Two error sources: SC sampling noise and the O(1/n) Bernstein
  // approximation gap.
  EXPECT_NEAR(out.value(), std::pow(x, gamma), 0.08) << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Grid, BernsteinAccuracy,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

TEST(BernsteinSelect, ExpectedValueMatchesFormula) {
  // Non-monotone coefficient set: checks the full selection construction.
  const std::vector<double> b = {0.9, 0.1, 0.7, 0.3};
  const double x = 0.6;
  Mt19937Source src(44);
  const Bitstream out = scBernsteinEvaluate(src, x, b, 8, 32768);
  EXPECT_NEAR(out.value(), bernsteinValue(b, x), 0.03);
}

}  // namespace
}  // namespace aimsc::sc
