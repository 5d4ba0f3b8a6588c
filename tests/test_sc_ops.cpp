// Software-level SC arithmetic semantics (paper Fig. 2 / Table II ops).
#include <gtest/gtest.h>

#include <cmath>

#include "sc/correlation.hpp"
#include "sc/ops.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"

namespace aimsc::sc {
namespace {

constexpr std::size_t kN = 8192;
constexpr int kBits = 8;

struct OpCase {
  double px;
  double py;
};

class ScOpsAccuracy : public ::testing::TestWithParam<OpCase> {
 protected:
  Mt19937Source src_{0x12345};
};

TEST_P(ScOpsAccuracy, MultiplyIndependent) {
  const auto [px, py] = GetParam();
  const auto [x, y] = makeIndependentPair(src_, px, py, kBits, kN);
  EXPECT_NEAR(scMultiply(x, y).value(), px * py, 0.03);
}

TEST_P(ScOpsAccuracy, ScaledAddMux) {
  const auto [px, py] = GetParam();
  const auto [x, y] = makeIndependentPair(src_, px, py, kBits, kN);
  const Bitstream sel = generateSbsFromProb(src_, 0.5, kBits, kN);
  EXPECT_NEAR(scScaledAddMux(x, y, sel).value(), (px + py) / 2, 0.03);
}

TEST_P(ScOpsAccuracy, ScaledAddMajMatchesMuxInExpectation) {
  const auto [px, py] = GetParam();
  const auto [x, y] = makeIndependentPair(src_, px, py, kBits, kN);
  const Bitstream sel = generateSbsFromProb(src_, 0.5, kBits, kN);
  // MAJ(x,y,s): P = pxy + ps(px + py - 2pxy); at ps=0.5 -> (px+py)/2 exactly.
  EXPECT_NEAR(scScaledAddMaj(x, y, sel).value(), (px + py) / 2, 0.03);
}

TEST_P(ScOpsAccuracy, ApproxAddOr) {
  const auto [px, py] = GetParam();
  // OR addition is accurate for inputs in [0, 0.5] (Fig. 2 note).
  const double qx = px / 2;
  const double qy = py / 2;
  const auto [x, y] = makeIndependentPair(src_, qx, qy, kBits, kN);
  EXPECT_NEAR(scAddOr(x, y).value(), qx + qy - qx * qy, 0.03);
}

TEST_P(ScOpsAccuracy, AbsSubCorrelated) {
  const auto [px, py] = GetParam();
  const auto [x, y] = makeCorrelatedPair(src_, px, py, kBits, kN);
  EXPECT_NEAR(scAbsSub(x, y).value(), std::abs(px - py), 0.03);
}

TEST_P(ScOpsAccuracy, MinMaxCorrelated) {
  const auto [px, py] = GetParam();
  const auto [x, y] = makeCorrelatedPair(src_, px, py, kBits, kN);
  EXPECT_NEAR(scMin(x, y).value(), std::min(px, py), 0.03);
  EXPECT_NEAR(scMax(x, y).value(), std::max(px, py), 0.03);
}

TEST_P(ScOpsAccuracy, IntoFormsMatchAllocatingForms) {
  // Each *Into form into a fresh, a stale-width and an aliased destination
  // (dst may alias any operand) emits exactly the allocating form's bits.
  const auto [px, py] = GetParam();
  const auto [x, y] = makeIndependentPair(src_, px, py, kBits, kN);
  const Bitstream sel = generateSbsFromProb(src_, 0.5, kBits, kN);
  const auto check = [&](const Bitstream& want, auto&& into, const char* op) {
    Bitstream fresh;
    into(fresh, x, y);
    EXPECT_EQ(fresh, want) << op << " (fresh)";
    Bitstream stale(kN / 3, true);
    into(stale, x, y);
    EXPECT_EQ(stale, want) << op << " (stale width)";
    Bitstream aliased = x;
    into(aliased, aliased, y);
    EXPECT_EQ(aliased, want) << op << " (dst aliases x)";
  };
  check(scMultiply(x, y), scMultiplyInto, "multiply");
  check(scAddOr(x, y), scAddOrInto, "addOr");
  check(scAbsSub(x, y), scAbsSubInto, "absSub");
  check(scMin(x, y), scMinInto, "min");
  check(scMax(x, y), scMaxInto, "max");
  check(scScaledAddMux(x, y, sel),
        [&](Bitstream& d, const Bitstream& a, const Bitstream& b) {
          scScaledAddMuxInto(d, a, b, sel);
        },
        "scaledAddMux");
  check(scScaledAddMaj(x, y, sel),
        [&](Bitstream& d, const Bitstream& a, const Bitstream& b) {
          scScaledAddMajInto(d, a, b, sel);
        },
        "scaledAddMaj");
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ScOpsAccuracy,
    ::testing::Values(OpCase{0.2, 0.7}, OpCase{0.5, 0.5}, OpCase{0.9, 0.1},
                      OpCase{0.33, 0.66}, OpCase{0.05, 0.95},
                      OpCase{0.75, 0.25}, OpCase{0.6, 0.6}));

// --- correlation requirements matter -----------------------------------------

TEST(ScOpsCorrelation, XorOnIndependentStreamsIsWrong) {
  Mt19937Source src(42);
  const auto [x, y] = makeIndependentPair(src, 0.5, 0.5, kBits, kN);
  // Independent XOR measures px(1-py)+py(1-px) = 0.5, not |px-py| = 0.
  EXPECT_NEAR(scAbsSub(x, y).value(), 0.5, 0.05);
}

TEST(ScOpsCorrelation, AndOnCorrelatedStreamsGivesMinNotProduct) {
  Mt19937Source src(43);
  const auto [x, y] = makeCorrelatedPair(src, 0.5, 0.5, kBits, kN);
  EXPECT_NEAR((x & y).value(), 0.5, 0.03);  // min, not 0.25
}

// --- MUX4 (bilinear kernel) ---------------------------------------------------

TEST(ScMux4, MatchesBilinearFormula) {
  Mt19937Source src(7);
  const double p11 = 0.2, p12 = 0.9, p21 = 0.4, p22 = 0.6;
  const double dx = 0.25, dy = 0.75;
  const Bitstream i11 = generateSbsFromProb(src, p11, kBits, kN);
  const Bitstream i12 = generateSbsFromProb(src, p12, kBits, kN);
  const Bitstream i21 = generateSbsFromProb(src, p21, kBits, kN);
  const Bitstream i22 = generateSbsFromProb(src, p22, kBits, kN);
  const Bitstream sx = generateSbsFromProb(src, dx, kBits, kN);
  const Bitstream sy = generateSbsFromProb(src, dy, kBits, kN);
  const double expected = (1 - dx) * (1 - dy) * p11 + (1 - dx) * dy * p12 +
                          dx * (1 - dy) * p21 + dx * dy * p22;
  EXPECT_NEAR(scMux4(i11, i12, i21, i22, sx, sy).value(), expected, 0.03);
}

TEST(ScMux4Maj, CloseToExactMuxAtMidSelects) {
  Mt19937Source src(8);
  const double p11 = 0.3, p12 = 0.5, p21 = 0.7, p22 = 0.4;
  const double dx = 0.5, dy = 0.5;  // MAJ == MUX exactly at 0.5 selects
  const Bitstream i11 = generateSbsFromProb(src, p11, kBits, kN);
  const Bitstream i12 = generateSbsFromProb(src, p12, kBits, kN);
  const Bitstream i21 = generateSbsFromProb(src, p21, kBits, kN);
  const Bitstream i22 = generateSbsFromProb(src, p22, kBits, kN);
  const Bitstream sx = generateSbsFromProb(src, dx, kBits, kN);
  const Bitstream sy = generateSbsFromProb(src, dy, kBits, kN);
  const double exact = scMux4(i11, i12, i21, i22, sx, sy).value();
  const double maj = scMux4Maj(i11, i12, i21, i22, sx, sy).value();
  EXPECT_NEAR(maj, exact, 0.04);
}

TEST(ScMajAsMux, ErrorBoundHolds) {
  // |MAJ - MUX| expectation = pb(1-pa)|2ps-1| for independent inputs.
  Mt19937Source src(9);
  const double pa = 0.8, pb = 0.4, ps = 0.9;
  const Bitstream a = generateSbsFromProb(src, pa, kBits, kN);
  const Bitstream b = generateSbsFromProb(src, pb, kBits, kN);
  const Bitstream s = generateSbsFromProb(src, ps, kBits, kN);
  const double mux = ps * pa + (1 - ps) * pb;
  const double majErr = std::abs(scScaledAddMaj(a, b, s).value() - mux);
  const double bound = pb * (1 - pa) * std::abs(2 * ps - 1) + 0.04;
  EXPECT_LE(majErr, bound);
}

}  // namespace
}  // namespace aimsc::sc
