// In-memory SC arithmetic layer: semantics + event accounting + faults.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/imops.hpp"
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
  EXPECT_EQ(rig.ops.multiply(x, y), (x & y));
  EXPECT_EQ(rig.array.events().counts().slReads, 1u);
  EXPECT_EQ(rig.array.events().counts().latchOps, 1u);
}

TEST(ImOps, ScaledAddIsMaj) {
  Rig rig;
  sc::Mt19937Source src(2);
  const auto [x, y] = sc::makeIndependentPair(src, 0.3, 0.7, 8, 4096);
  const sc::Bitstream half = sc::generateSbsFromProb(src, 0.5, 8, 4096);
  const auto r = rig.ops.scaledAdd(x, y, half);
  EXPECT_EQ(r, sc::Bitstream::majority(x, y, half));
  EXPECT_NEAR(r.value(), 0.5, 0.03);
}

TEST(ImOps, AbsSubChargesWindowLatches) {
  Rig rig;
  sc::Mt19937Source src(3);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.2, 0.9, 8, 4096);
  const auto r = rig.ops.absSub(x, y);
  EXPECT_NEAR(r.value(), 0.7, 0.03);
  EXPECT_EQ(rig.array.events().counts().latchOps, 2u);  // two references
}

TEST(ImOps, MinMaxApproxAdd) {
  Rig rig;
  sc::Mt19937Source src(4);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.35, 0.55, 8, 4096);
  EXPECT_NEAR(rig.ops.minimum(x, y).value(), 0.35, 0.03);
  EXPECT_NEAR(rig.ops.maximum(x, y).value(), 0.55, 0.03);
  const auto [u, v] = sc::makeIndependentPair(src, 0.2, 0.25, 8, 4096);
  EXPECT_NEAR(rig.ops.addApprox(u, v).value(), 0.2 + 0.25 - 0.05, 0.03);
}

TEST(ImOps, DivideMatchesSoftwareCordiv) {
  Rig rig;
  sc::Mt19937Source src(5);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.3, 0.6, 8, 4096);
  const auto q = rig.ops.divide(x, y);
  EXPECT_EQ(q, sc::cordivDivide(x, y, sc::CordivVariant::JkFlipFlop));
  EXPECT_NEAR(q.value(), 0.5, 0.05);
  EXPECT_EQ(rig.array.events().counts().cordivIterations, 4096u);
}

TEST(ImOps, DivideLengthMismatchThrows) {
  Rig rig;
  EXPECT_THROW(rig.ops.divide(sc::Bitstream(8), sc::Bitstream(16)),
               std::invalid_argument);
}

TEST(ImOps, MajMuxTracksCompositingFormula) {
  Rig rig;
  sc::Mt19937Source src(6);
  const double pf = 0.8, pb = 0.3, pa = 0.5;  // alpha=0.5: MAJ == MUX exactly
  const sc::Bitstream f = sc::generateSbsFromProb(src, pf, 8, 4096);
  const sc::Bitstream b = sc::generateSbsFromProb(src, pb, 8, 4096);
  const sc::Bitstream a = sc::generateSbsFromProb(src, pa, 8, 4096);
  EXPECT_NEAR(rig.ops.majMux(f, b, a).value(), pa * pf + (1 - pa) * pb, 0.03);
}

TEST(ImOps, MajMux4CostsThreeCycles) {
  Rig rig;
  sc::Mt19937Source src(7);
  auto gen = [&](double p) { return sc::generateSbsFromProb(src, p, 8, 4096); };
  const auto r = rig.ops.majMux4(gen(0.2), gen(0.4), gen(0.6), gen(0.8),
                                 gen(0.5), gen(0.5));
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
  ImOps ops(sl, 3);
  sc::Mt19937Source src(8);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.3, 0.6, 8, 4096);
  const double q = ops.divide(x, y).value();
  EXPECT_NEAR(q, 0.5, 0.12);  // degraded but not destroyed (SC robustness)
}

TEST(ImOps, FaultFreeDivisionUnchangedWithNullFaultModel) {
  Rig rig;
  sc::Mt19937Source src(9);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.4, 0.8, 8, 2048);
  const auto q1 = rig.ops.divide(x, y);
  const auto q2 = rig.ops.divide(x, y);
  EXPECT_EQ(q1, q2);  // deterministic without faults
}

// --- allocating vs destination-passing forms ----------------------------------

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
        ops(scouting, 0x0b) {}
  reram::CrossbarArray array;
  reram::ScoutingLogic scouting;
  ImOps ops;
};

class ImOpsIntoForms : public ::testing::TestWithParam<bool> {};

TEST_P(ImOpsIntoForms, MatchAllocatingFormsCallForCall) {
  // Two identically seeded rigs driven through the same op sequence, one
  // through the allocating forms and one through the *Into forms: bits,
  // misdecision draws and event charges must agree call for call.
  constexpr std::size_t kN = 1024;
  std::unique_ptr<reram::FaultModel> faults;
  if (GetParam()) {
    reram::DeviceParams p;
    p.sigmaLrs = 0.12;
    p.sigmaHrs = 1.1;
    faults = std::make_unique<reram::FaultModel>(p, 1, 20000);
  }
  FidelityRig a(faults.get(), kN);
  FidelityRig i(faults.get(), kN);
  sc::Mt19937Source src(11);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.3, 0.7, 8, kN);
  const auto [u, v] = sc::makeIndependentPair(src, 0.4, 0.6, 8, kN);
  const sc::Bitstream half = sc::generateSbsFromProb(src, 0.5, 8, kN);
  const sc::Bitstream sx = sc::generateSbsFromProb(src, 0.25, 8, kN);

  std::size_t flippedVsIdeal = 0;
  sc::Bitstream dst(kN / 2, true);  // stale width: Into must resize
  const auto same = [&](const sc::Bitstream& want, const sc::Bitstream& ideal,
                        const char* op) {
    EXPECT_EQ(dst, want) << op;
    flippedVsIdeal += (want ^ ideal).popcount();
  };

  i.ops.multiplyInto(dst, u, v);
  same(a.ops.multiply(u, v), sc::scMultiply(u, v), "multiply");
  i.ops.scaledAddInto(dst, u, v, half);
  same(a.ops.scaledAdd(u, v, half), sc::scScaledAddMaj(u, v, half),
       "scaledAdd");
  i.ops.addApproxInto(dst, u, v);
  same(a.ops.addApprox(u, v), sc::scAddOr(u, v), "addApprox");
  i.ops.absSubInto(dst, x, y);
  same(a.ops.absSub(x, y), sc::scAbsSub(x, y), "absSub");
  i.ops.minimumInto(dst, x, y);
  same(a.ops.minimum(x, y), sc::scMin(x, y), "minimum");
  i.ops.maximumInto(dst, x, y);
  same(a.ops.maximum(x, y), sc::scMax(x, y), "maximum");
  i.ops.majMuxInto(dst, x, y, half);
  same(a.ops.majMux(x, y, half), sc::scScaledAddMaj(x, y, half), "majMux");
  i.ops.majMux4Into(dst, u, v, x, y, sx, half);
  same(a.ops.majMux4(u, v, x, y, sx, half), sc::scMux4Maj(u, v, x, y, sx, half),
       "majMux4");
  i.ops.divideInto(dst, x, y);
  same(a.ops.divide(x, y),
       sc::cordivDivide(x, y, sc::CordivVariant::JkFlipFlop), "divide");

  const std::vector<sc::Bitstream> copies{u, v, x};
  const std::vector<sc::Bitstream> coeffs{y, half, sx, u};
  const std::vector<const sc::Bitstream*> copyPtrs{&u, &v, &x};
  const std::vector<const sc::Bitstream*> coeffPtrs{&y, &half, &sx, &u};
  i.ops.bernsteinSelectInto(dst, copyPtrs, coeffPtrs);
  EXPECT_EQ(dst, a.ops.bernsteinSelect(copies, coeffs)) << "bernsteinSelect";

  EXPECT_EQ(a.array.events().counts(), i.array.events().counts());
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
