// In-memory SC arithmetic layer: semantics + event accounting + faults.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/imops.hpp"
#include "sc/bernstein.hpp"
#include "sc/correlation.hpp"
#include "sc/ops.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"

namespace aimsc::core {
namespace {

struct Rig {
  explicit Rig(std::size_t n = 4096)
      : array(4, n, reram::DeviceParams::ideal()), scouting(array), ops(scouting) {}
  reram::CrossbarArray array;
  reram::ScoutingLogic scouting;
  ImOps ops;
};

TEST(ImOps, MultiplyMatchesSoftwareAnd) {
  Rig rig;
  sc::Mt19937Source src(1);
  const auto [x, y] = sc::makeIndependentPair(src, 0.4, 0.6, 8, 4096);
  sc::Bitstream r;
  rig.ops.multiplyInto(r, x, y);
  EXPECT_EQ(r, (x & y));
  EXPECT_EQ(rig.array.events().counts().slReads, 1u);
  EXPECT_EQ(rig.array.events().counts().latchOps, 1u);
}

TEST(ImOps, ScaledAddIsMaj) {
  Rig rig;
  sc::Mt19937Source src(2);
  const auto [x, y] = sc::makeIndependentPair(src, 0.3, 0.7, 8, 4096);
  const sc::Bitstream half = sc::generateSbsFromProb(src, 0.5, 8, 4096);
  sc::Bitstream r;
  rig.ops.scaledAddInto(r, x, y, half);
  EXPECT_EQ(r, sc::Bitstream::majority(x, y, half));
  EXPECT_NEAR(r.value(), 0.5, 0.03);
}

TEST(ImOps, AbsSubChargesWindowLatches) {
  Rig rig;
  sc::Mt19937Source src(3);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.2, 0.9, 8, 4096);
  sc::Bitstream r;
  rig.ops.absSubInto(r, x, y);
  EXPECT_NEAR(r.value(), 0.7, 0.03);
  EXPECT_EQ(rig.array.events().counts().latchOps, 2u);  // two references
}

TEST(ImOps, MinMaxApproxAdd) {
  Rig rig;
  sc::Mt19937Source src(4);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.35, 0.55, 8, 4096);
  sc::Bitstream r;
  rig.ops.minimumInto(r, x, y);
  EXPECT_NEAR(r.value(), 0.35, 0.03);
  rig.ops.maximumInto(r, x, y);
  EXPECT_NEAR(r.value(), 0.55, 0.03);
  const auto [u, v] = sc::makeIndependentPair(src, 0.2, 0.25, 8, 4096);
  rig.ops.addApproxInto(r, u, v);
  EXPECT_NEAR(r.value(), 0.2 + 0.25 - 0.05, 0.03);
}

TEST(ImOps, DivideMatchesSoftwareCordiv) {
  Rig rig;
  sc::Mt19937Source src(5);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.3, 0.6, 8, 4096);
  sc::Bitstream q;
  rig.ops.divideInto(q, x, y);
  EXPECT_EQ(q, sc::cordivDivide(x, y, sc::CordivVariant::JkFlipFlop));
  EXPECT_NEAR(q.value(), 0.5, 0.05);
  EXPECT_EQ(rig.array.events().counts().cordivIterations, 4096u);
}

TEST(ImOps, DivideLengthMismatchThrows) {
  Rig rig;
  sc::Bitstream q;
  EXPECT_THROW(rig.ops.divideInto(q, sc::Bitstream(8), sc::Bitstream(16)),
               std::invalid_argument);
}

TEST(ImOps, MajMuxTracksCompositingFormula) {
  Rig rig;
  sc::Mt19937Source src(6);
  const double pf = 0.8, pb = 0.3, pa = 0.5;  // alpha=0.5: MAJ == MUX exactly
  const sc::Bitstream f = sc::generateSbsFromProb(src, pf, 8, 4096);
  const sc::Bitstream b = sc::generateSbsFromProb(src, pb, 8, 4096);
  const sc::Bitstream a = sc::generateSbsFromProb(src, pa, 8, 4096);
  sc::Bitstream r;
  rig.ops.majMuxInto(r, f, b, a);
  EXPECT_NEAR(r.value(), pa * pf + (1 - pa) * pb, 0.03);
}

TEST(ImOps, MajMux4CostsThreeCycles) {
  Rig rig;
  sc::Mt19937Source src(7);
  auto gen = [&](double p) { return sc::generateSbsFromProb(src, p, 8, 4096); };
  sc::Bitstream r;
  rig.ops.majMux4Into(r, gen(0.2), gen(0.4), gen(0.6), gen(0.8), gen(0.5),
                      gen(0.5));
  EXPECT_EQ(rig.array.events().counts().slReads, 3u);
  EXPECT_NEAR(r.value(), 0.5, 0.04);  // centroid at 0.5/0.5 selects
}

TEST(ImOps, FaultyDivisionDegradesButBounded) {
  reram::DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.1;
  reram::CrossbarArray arr(4, 4096, p);
  reram::FaultModel fm(p, 1, 30000);
  reram::ScoutingLogic sl(arr, reram::ScoutingLogic::Fidelity::Probabilistic,
                          &fm, 2);
  ImOps ops(sl);
  sc::Mt19937Source src(8);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.3, 0.6, 8, 4096);
  sc::Bitstream q;
  ops.divideInto(q, x, y);
  // Degraded but not destroyed (SC robustness).
  EXPECT_NEAR(q.value(), 0.5, 0.12);
}

TEST(ImOps, FaultFreeDivisionUnchangedWithNullFaultModel) {
  Rig rig;
  sc::Mt19937Source src(9);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.4, 0.8, 8, 2048);
  sc::Bitstream q1;
  sc::Bitstream q2;
  rig.ops.divideInto(q1, x, y);
  rig.ops.divideInto(q2, x, y);
  EXPECT_EQ(q1, q2);  // deterministic without faults
}

// --- every op at both sensing fidelities -------------------------------------

/// A rig whose scouting engine runs Ideal sensing (no model) or
/// Probabilistic sensing (per-column misdecisions drawn from \p faults).
struct FidelityRig {
  FidelityRig(const reram::FaultModel* faults, std::size_t n)
      : array(4, n, reram::DeviceParams::ideal()),
        scouting(array,
                 faults != nullptr
                     ? reram::ScoutingLogic::Fidelity::Probabilistic
                     : reram::ScoutingLogic::Fidelity::Ideal,
                 faults, 0x51),
        ops(scouting) {}
  reram::CrossbarArray array;
  reram::ScoutingLogic scouting;
  ImOps ops;
};

class ImOpsIntoForms : public ::testing::TestWithParam<bool> {};

TEST_P(ImOpsIntoForms, MatchSoftwareOpsAndChargeTheLedger) {
  // Every op into one reused destination: Ideal sensing reproduces the
  // software SC op bit for bit, Probabilistic sensing draws misdecisions,
  // and both charge the same sensing steps, latch captures and CORDIV
  // iterations.
  constexpr std::size_t kN = 1024;
  std::unique_ptr<reram::FaultModel> faults;
  if (GetParam()) {
    reram::DeviceParams p;
    p.sigmaLrs = 0.12;
    p.sigmaHrs = 1.1;
    faults = std::make_unique<reram::FaultModel>(p, 1, 20000);
  }
  FidelityRig i(faults.get(), kN);
  sc::Mt19937Source src(11);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.3, 0.7, 8, kN);
  const auto [u, v] = sc::makeIndependentPair(src, 0.4, 0.6, 8, kN);
  const sc::Bitstream half = sc::generateSbsFromProb(src, 0.5, 8, kN);
  const sc::Bitstream sx = sc::generateSbsFromProb(src, 0.25, 8, kN);

  std::size_t flippedVsIdeal = 0;
  sc::Bitstream dst(kN / 2, true);  // stale width: Into must resize
  const auto sensed = [&](const sc::Bitstream& ideal) {
    ASSERT_EQ(dst.size(), kN);
    flippedVsIdeal += (dst ^ ideal).popcount();
  };

  i.ops.multiplyInto(dst, u, v);
  sensed(sc::scMultiply(u, v));
  i.ops.scaledAddInto(dst, u, v, half);
  sensed(sc::scScaledAddMaj(u, v, half));
  i.ops.addApproxInto(dst, u, v);
  sensed(sc::scAddOr(u, v));
  i.ops.absSubInto(dst, x, y);
  sensed(sc::scAbsSub(x, y));
  i.ops.minimumInto(dst, x, y);
  sensed(sc::scMin(x, y));
  i.ops.maximumInto(dst, x, y);
  sensed(sc::scMax(x, y));
  i.ops.majMuxInto(dst, x, y, half);
  sensed(sc::scScaledAddMaj(x, y, half));
  i.ops.majMux4Into(dst, u, v, x, y, sx, half);
  sensed(sc::scMux4Maj(u, v, x, y, sx, half));
  i.ops.divideInto(dst, x, y);
  sensed(sc::cordivDivide(x, y, sc::CordivVariant::JkFlipFlop));

  // The selection network senses nothing itself: faults reach it only
  // through its encoded inputs.
  const std::vector<const sc::Bitstream*> copyPtrs{&u, &v, &x};
  const std::vector<const sc::Bitstream*> coeffPtrs{&y, &half, &sx, &u};
  i.ops.bernsteinSelectInto(dst, copyPtrs, coeffPtrs);
  EXPECT_EQ(dst, sc::scBernsteinSelect(copyPtrs, coeffPtrs));

  // One sensing step per bulk op, three for majMux4 and copies + coeffs - 1
  // for the selection network; two latch captures for the XOR window.
  const reram::EventCounts& ev = i.array.events().counts();
  EXPECT_EQ(ev.slReads, 7u + 3u + 6u);
  EXPECT_EQ(ev.latchOps, 6u + 2u + 3u + 6u);
  EXPECT_EQ(ev.cordivIterations, kN);
  if (GetParam()) {
    EXPECT_GT(flippedVsIdeal, 0u) << "probabilistic rig injected no fault";
  } else {
    EXPECT_EQ(flippedVsIdeal, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Fidelity, ImOpsIntoForms, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Probabilistic" : "Ideal";
                         });

}  // namespace
}  // namespace aimsc::core
