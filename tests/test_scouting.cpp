// Scouting-logic engine: ideal exactness, event accounting, probabilistic
// fault statistics, Monte-Carlo consistency.
#include <gtest/gtest.h>

#include <cmath>

#include "reram/fault_model.hpp"
#include "reram/scouting.hpp"

namespace aimsc::reram {
namespace {

sc::Bitstream randomStream(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 eng(seed);
  sc::Bitstream s(n);
  for (std::size_t i = 0; i < n; ++i) s.set(i, eng() & 1);
  return s;
}

TEST(ScoutingIdeal, MatchesWordLevelOps) {
  CrossbarArray arr(4, 256, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  const auto a = randomStream(256, 1);
  const auto b = randomStream(256, 2);
  const auto c = randomStream(256, 3);
  sc::Bitstream out;
  sl.op2Into(SlOp::And, out, a, b);
  EXPECT_EQ(out, (a & b));
  sl.op2Into(SlOp::Or, out, a, b);
  EXPECT_EQ(out, (a | b));
  sl.op2Into(SlOp::Xor, out, a, b);
  EXPECT_EQ(out, (a ^ b));
  sl.op2Into(SlOp::Nand, out, a, b);
  EXPECT_EQ(out, ~(a & b));
  sl.op2Into(SlOp::Nor, out, a, b);
  EXPECT_EQ(out, ~(a | b));
  sl.op2Into(SlOp::Xnor, out, a, b);
  EXPECT_EQ(out, ~(a ^ b));
  sl.op3Into(SlOp::Maj3, out, a, b, c);
  EXPECT_EQ(out, sc::Bitstream::majority(a, b, c));
  const sc::Bitstream* single[] = {&a};
  sl.opInto(SlOp::Not, out, single);
  EXPECT_EQ(out, ~a);
}

TEST(ScoutingIdeal, PartialWordMatchesWordLevelOpsAndFourOperandsThrow) {
  // 200 columns end mid-word: the complemented classes must not leak into
  // the tail.
  CrossbarArray arr(4, 200, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  const auto a = randomStream(200, 21);
  const auto b = randomStream(200, 22);
  const auto c = randomStream(200, 23);
  const auto d = randomStream(200, 24);
  sc::Bitstream out;
  sl.op2Into(SlOp::Nor, out, a, b);
  EXPECT_EQ(out, ~(a | b));
  sl.op2NotAInto(SlOp::Nor, out, a, b);
  EXPECT_EQ(out, (a & ~b));
  sl.op3Into(SlOp::Maj3, out, a, b, c);
  EXPECT_EQ(out, sc::Bitstream::majority(a, b, c));
  const sc::Bitstream* single[] = {&a};
  sl.opInto(SlOp::Not, out, single);
  EXPECT_EQ(out, ~a);
  // A step senses at most three rows.
  const sc::Bitstream* four[] = {&a, &b, &c, &d};
  EXPECT_THROW(sl.opInto(SlOp::And, out, four), std::invalid_argument);
  EXPECT_THROW(sl.opInto(SlOp::Nor, out, four), std::invalid_argument);
  EXPECT_THROW(sl.misdecisionProb(SlOp::Or, 0, 4), std::invalid_argument);
}

TEST(ScoutingIdeal, OperatesOnStoredRows) {
  CrossbarArray arr(4, 64, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  arr.writeRow(0, randomStream(64, 4));
  arr.writeRow(1, randomStream(64, 5));
  const sc::Bitstream* rows[] = {&arr.row(0), &arr.row(1)};
  sc::Bitstream out;
  sl.opInto(SlOp::And, out, rows);
  EXPECT_EQ(out, (arr.row(0) & arr.row(1)));
}

TEST(Scouting, EventAccounting) {
  CrossbarArray arr(4, 64, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  const auto a = randomStream(64, 6);
  const auto b = randomStream(64, 7);
  sc::Bitstream out;
  sl.op2Into(SlOp::And, out, a, b);
  sl.op2Into(SlOp::Xor, out, a, b);
  const sc::Bitstream* single[] = {&a};
  sl.opInto(SlOp::Not, out, single);
  EXPECT_EQ(arr.events().counts().slReads, 3u);
}

TEST(Scouting, OperandValidation) {
  CrossbarArray arr(4, 64, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  const auto a = randomStream(64, 8);
  const auto b = randomStream(32, 9);
  const auto c = randomStream(64, 10);
  sc::Bitstream out;
  const sc::Bitstream* three[] = {&a, &c, &a};
  EXPECT_THROW(sl.op2Into(SlOp::And, out, a, b), std::invalid_argument);
  EXPECT_THROW(sl.opInto(SlOp::And, out, {}), std::invalid_argument);  // empty
  EXPECT_THROW(sl.op2Into(SlOp::Maj3, out, a, c), std::invalid_argument);
  EXPECT_THROW(sl.opInto(SlOp::Xor, out, three), std::invalid_argument);
  EXPECT_THROW(sl.op2Into(SlOp::Not, out, a, c), std::invalid_argument);
}

TEST(Scouting, ProbabilisticNeedsFaultModel) {
  CrossbarArray arr(4, 64);
  EXPECT_THROW(
      ScoutingLogic(arr, ScoutingLogic::Fidelity::Probabilistic, nullptr),
      std::invalid_argument);
}

TEST(Scouting, ProbabilisticWithZeroSigmaIsExact) {
  CrossbarArray arr(4, 256, DeviceParams::ideal());
  FaultModel fm(DeviceParams::ideal(), 1, 1000);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::Probabilistic, &fm);
  const auto a = randomStream(256, 11);
  const auto b = randomStream(256, 12);
  sc::Bitstream out;
  sl.op2Into(SlOp::And, out, a, b);
  EXPECT_EQ(out, (a & b));
}

TEST(Scouting, ProbabilisticFaultRateMatchesModel) {
  // Statistical check: the flips of one pattern class are
  // Binomial(columns, p) at the model's misdecision probability.
  DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.1;
  CrossbarArray arr(4, 4096, p);
  FaultModel fm(p, 2, 40000);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::Probabilistic, &fm, 99);

  const sc::Bitstream ones(4096, true);
  const sc::Bitstream zeros(4096);
  // Pattern: one LRS, one HRS -> AND ideal 0; flips with p(And,1,2).
  std::size_t flips = 0;
  constexpr int kReps = 50;
  sc::Bitstream out;
  for (int r = 0; r < kReps; ++r) {
    sl.op2Into(SlOp::And, out, ones, zeros);
    flips += out.popcount();
  }
  const double pAnd = fm.misdecisionProb(SlOp::And, 1, 2);
  ASSERT_GT(pAnd, 0.0);
  const double columns = 4096.0 * kReps;
  const double sd = std::sqrt(columns * pAnd * (1.0 - pAnd));
  EXPECT_NEAR(static_cast<double>(flips), columns * pAnd, 4.0 * sd);
}

TEST(Scouting, MonteCarloAgreesWithIdealForTightDevices) {
  DeviceParams p;  // default sigmas: negligible overlap
  p.sigmaLrs = 0.02;
  p.sigmaHrs = 0.05;
  CrossbarArray arr(4, 512, p);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::MonteCarlo);
  const auto a = randomStream(512, 13);
  const auto b = randomStream(512, 14);
  sc::Bitstream out;
  sl.op2Into(SlOp::And, out, a, b);
  EXPECT_EQ(out, (a & b));
  sl.op2Into(SlOp::Or, out, a, b);
  EXPECT_EQ(out, (a | b));
}

TEST(Scouting, MonteCarloShowsFaultsForLeakyDevices) {
  DeviceParams p;
  p.sigmaLrs = 0.3;
  p.sigmaHrs = 1.4;
  CrossbarArray arr(4, 8192, p);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::MonteCarlo);
  const sc::Bitstream ones(8192, true);
  const sc::Bitstream zeros(8192);
  std::size_t wrong = 0;
  sc::Bitstream out;
  for (int r = 0; r < 10; ++r) {
    sl.op2Into(SlOp::Xor, out, ones, zeros);
    wrong += out.popcount();
  }
  // XOR of (1,0) should be all ones; count misdecisions (zeros).
  EXPECT_GT(10u * 8192u - wrong, 0u);
}

}  // namespace
}  // namespace aimsc::reram
