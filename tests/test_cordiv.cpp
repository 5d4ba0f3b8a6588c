// CORDIV stochastic division (Chen & Hayes design; paper Fig. 2 and the
// in-memory JK-flip-flop mapping of Sec. III-B).
#include <gtest/gtest.h>

#include <cmath>

#include "sc/cordiv.hpp"
#include "sc/correlation.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"

namespace aimsc::sc {
namespace {

TEST(CordivUnit, DivisorOnePassesDividend) {
  CordivUnit u;
  EXPECT_FALSE(u.clock(false, true));
  EXPECT_TRUE(u.clock(true, true));
  EXPECT_FALSE(u.clock(false, true));
}

TEST(CordivUnit, DivisorZeroHoldsLastSample) {
  CordivUnit u;
  u.clock(true, true);             // state <- 1
  EXPECT_TRUE(u.clock(false, false));   // held
  EXPECT_TRUE(u.clock(false, false));   // still held
  u.clock(false, true);            // state <- 0
  EXPECT_FALSE(u.clock(true, false));   // held 0 (x ignored when y=0)
}

TEST(CordivUnit, ResetRestoresInitialState) {
  CordivUnit u(CordivVariant::DFlipFlop, true);
  u.clock(false, true);  // state -> 0
  EXPECT_FALSE(u.state());
  u.reset();
  EXPECT_TRUE(u.state());
}

TEST(CordivUnit, JkVariantMatchesDVariantBitForBit) {
  CordivUnit d(CordivVariant::DFlipFlop);
  CordivUnit jk(CordivVariant::JkFlipFlop);
  std::mt19937_64 eng(99);
  for (int i = 0; i < 2000; ++i) {
    const bool x = eng() & 1;
    const bool y = eng() & 1;
    EXPECT_EQ(d.clock(x, y), jk.clock(x, y)) << "step " << i;
    EXPECT_EQ(d.state(), jk.state());
  }
}

TEST(CordivDivide, LengthMismatchThrows) {
  EXPECT_THROW(cordivDivide(Bitstream(8), Bitstream(9)), std::invalid_argument);
}

class CordivAccuracy
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(CordivAccuracy, CorrelatedQuotient) {
  const auto [px, py] = GetParam();
  Mt19937Source src(0xd170);
  const auto [x, y] = makeCorrelatedPair(src, px, py, 8, 8192);
  const double q = cordivDivide(x, y).value();
  EXPECT_NEAR(q, px / py, 0.05) << px << "/" << py;
}

INSTANTIATE_TEST_SUITE_P(Ratios, CordivAccuracy,
                         ::testing::Values(std::pair{0.1, 0.5},
                                           std::pair{0.2, 0.4},
                                           std::pair{0.3, 0.9},
                                           std::pair{0.5, 0.5},
                                           std::pair{0.45, 0.9},
                                           std::pair{0.6, 0.8}));

TEST(CordivDivide, UncorrelatedInputsAreInaccurate) {
  // The correlation requirement is essential: independent streams push the
  // quotient toward px (conditioning disappears), not px/py.
  Mt19937Source src(5);
  const double px = 0.2, py = 0.5;
  const auto [x, y] = makeIndependentPair(src, px, py, 8, 8192);
  const double q = cordivDivide(x, y).value();
  EXPECT_GT(std::abs(q - px / py), 0.1);
}

TEST(CordivDivide, BothVariantsSameStream) {
  Mt19937Source src(6);
  const auto [x, y] = makeCorrelatedPair(src, 0.3, 0.75, 8, 1024);
  EXPECT_EQ(cordivDivide(x, y, CordivVariant::DFlipFlop),
            cordivDivide(x, y, CordivVariant::JkFlipFlop));
}

TEST(CordivDivide, IntoFormsMatchAllocatingForms) {
  // Serial and word-level CORDIV, both flip-flop variants, into fresh and
  // stale-width destinations; lengths straddle the 64-bit word boundary so
  // the word-level carry and tail handling are covered.
  Mt19937Source src(10);
  for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{256}, std::size_t{1000}}) {
    for (const auto& [px, py] : {std::pair{0.1, 0.5}, std::pair{0.45, 0.9},
                                 std::pair{0.7, 0.7}}) {
      const auto [x, y] = makeCorrelatedPair(src, px, py, 8, n);
      for (const CordivVariant v :
           {CordivVariant::DFlipFlop, CordivVariant::JkFlipFlop}) {
        const Bitstream want = cordivDivide(x, y, v);
        Bitstream fresh;
        cordivDivideInto(fresh, x, y, v);
        EXPECT_EQ(fresh, want) << "n=" << n;
        Bitstream stale(n + 17, true);
        cordivDivideInto(stale, x, y, v);
        EXPECT_EQ(stale, want) << "n=" << n;
      }
      const Bitstream wantWord = cordivDivideWordLevel(x, y);
      EXPECT_EQ(wantWord, cordivDivide(x, y)) << "n=" << n;
      Bitstream fresh;
      cordivDivideWordLevelInto(fresh, x, y);
      EXPECT_EQ(fresh, wantWord) << "n=" << n;
      Bitstream stale(n / 2, true);
      cordivDivideWordLevelInto(stale, x, y);
      EXPECT_EQ(stale, wantWord) << "n=" << n;
    }
  }
}

TEST(CordivDivide, ZeroDivisorYieldsInitialStateStream) {
  const Bitstream x(64);
  const Bitstream y(64);
  EXPECT_EQ(cordivDivide(x, y).popcount(), 0u);
}

TEST(CordivDivide, XEqualYGivesAllOnesWhereDefined) {
  Mt19937Source src(8);
  const auto [x, y] = makeCorrelatedPair(src, 0.7, 0.7, 8, 4096);
  EXPECT_NEAR(cordivDivide(x, y).value(), 1.0, 0.02);
}

}  // namespace
}  // namespace aimsc::sc
