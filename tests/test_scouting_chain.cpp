// ScoutingLogic::greaterThanInto, IMSNG's whole flag chain in one call,
// against the per-step sequence it replaces: on two identically seeded
// mats, the chain and the op2NotAInto / OR / op2Into loop must give the same
// stream, flag, step count and event ledger, at every device corner that
// exercises a different flip path.  Also holds the select that places each
// flip to the clear-lowest-bit walk, and an Imsng on a MonteCarlo mat to
// its construction-time rejection.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "core/imsng.hpp"
#include "reram/fault_model.hpp"
#include "reram/scouting.hpp"
#include "sc/select.hpp"

namespace aimsc::reram {
namespace {

/// The chain as one sensing step per call: today's IMSNG loop.
void perStepChain(ScoutingLogic& sl, std::uint32_t x,
                  const std::vector<const sc::Bitstream*>& planes,
                  sc::Bitstream& flag, sc::Bitstream& result) {
  const std::size_t m = planes.size();
  const std::size_t width = planes.front()->size();
  if (std::uint64_t{x} == std::uint64_t{1} << m) {
    flag.assign(width, false);
    result.assign(width, true);
    return;
  }
  flag.assign(width, true);
  result.assign(width, false);
  sc::Bitstream sensed;
  for (std::size_t i = 0; i < m; ++i) {
    const sc::Bitstream& rn = *planes[i];
    if ((x >> (m - 1 - i)) & 1u) {
      sl.op2NotAInto(SlOp::Nor, sensed, flag, rn);
      result |= sensed;
      sl.op2Into(SlOp::And, flag, flag, rn);
    } else {
      sl.op2NotAInto(SlOp::Nor, flag, flag, rn);
    }
  }
}

/// A device corner: its parameters and the model the mats share (none for
/// an Ideal mat).
struct Corner {
  std::string name;
  DeviceParams device;
  std::unique_ptr<FaultModel> model;
};

std::vector<Corner> corners() {
  std::vector<Corner> out;
  const auto add = [&](const std::string& name, const DeviceParams& d,
                       bool faulty, std::size_t samples) {
    out.push_back({name, d,
                   faulty ? std::make_unique<FaultModel>(d, 0xf417, samples)
                          : nullptr});
  };
  const DeviceParams table4 = apps::defaultFaultyDevice();
  add("TableIV", table4, true, 20000);
  DeviceParams hrs125 = table4;
  hrs125.sigmaHrs *= 1.25;
  add("sigmaHrs x1.25", hrs125, true, 20000);
  DeviceParams wide = table4;  // test_keyed_flips' corner, p up to ~0.45
  wide.sigmaLrs = 0.8;
  wide.sigmaHrs = 2.4;
  add("wide", wide, true, 20000);
  DeviceParams leaky;  // p = 1 on NOR with no '1', 0 elsewhere
  leaky.rLrsOhm = 10e3;
  leaky.rHrsOhm = 10.1e3;
  leaky.sigmaLrs = 1e-6;
  leaky.sigmaHrs = 1e-6;
  add("leaky", leaky, true, 2000);
  add("p=0", DeviceParams::ideal(), true, 1000);
  add("Ideal mat", table4, false, 0);
  return out;
}

/// Runs thresholds \p xs through the chain and the per-step oracle on two
/// identically seeded mats over the same random planes.
void expectChainMatchesSteps(const Corner& c, int m, std::size_t width,
                             const std::vector<std::uint32_t>& xs) {
  const auto fidelity = c.model ? ScoutingLogic::Fidelity::Probabilistic
                                : ScoutingLogic::Fidelity::Ideal;
  CrossbarArray chainArr(4, width, c.device);
  CrossbarArray stepArr(4, width, c.device);
  ScoutingLogic chain(chainArr, fidelity, c.model.get(), 0x5c + width);
  ScoutingLogic steps(stepArr, fidelity, c.model.get(), 0x5c + width);
  std::mt19937_64 eng(static_cast<std::uint64_t>(m) * 1000 + width);
  std::vector<sc::Bitstream> planeRows(static_cast<std::size_t>(m),
                                       sc::Bitstream(width));
  std::vector<const sc::Bitstream*> planes;
  for (sc::Bitstream& p : planeRows) {
    for (std::uint64_t& w : p.mutableWords()) w = eng();
    p.clearTail();
    planes.push_back(&p);
  }
  sc::Bitstream flag;
  sc::Bitstream result;
  sc::Bitstream oracleFlag;
  sc::Bitstream oracleResult;
  for (const std::uint32_t x : xs) {
    const std::string what = c.name + " M=" + std::to_string(m) +
                             " width=" + std::to_string(width) +
                             " x=" + std::to_string(x);
    chain.greaterThanInto(x, planes, flag, result);
    perStepChain(steps, x, planes, oracleFlag, oracleResult);
    ASSERT_EQ(result, oracleResult) << what;
    ASSERT_EQ(flag, oracleFlag) << what;
    ASSERT_EQ(chain.steps(), steps.steps()) << what;
    ASSERT_EQ(chainArr.events().counts(), stepArr.events().counts()) << what;
  }
}

TEST(GreaterThanChain, MatchesPerStepSequenceAtEveryCorner) {
  for (const Corner& c : corners()) {
    for (const int m : {1, 5, 8, 9, 16}) {
      std::vector<std::uint32_t> xs;
      if (m <= 9) {
        for (std::uint32_t x = 0; x <= (1u << m); ++x) xs.push_back(x);
      } else {
        std::mt19937 eng(static_cast<unsigned>(m));
        for (int i = 0; i < 300; ++i) xs.push_back(eng() % ((1u << m) + 1));
        xs.push_back(0);
        xs.push_back((1u << m) - 1);
        xs.push_back(1u << m);
      }
      for (const std::size_t width : {1, 63, 64, 100, 256}) {
        expectChainMatchesSteps(c, m, width, xs);
      }
    }
  }
}

TEST(GreaterThanChain, ReadsNoStepsForTheFullThreshold) {
  CrossbarArray arr(4, 100, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  const sc::Bitstream plane(100);
  const std::vector<const sc::Bitstream*> planes(3, &plane);
  sc::Bitstream flag;
  sc::Bitstream result;
  sl.greaterThanInto(8, planes, flag, result);
  EXPECT_EQ(result.popcount(), 100u);
  EXPECT_EQ(flag.popcount(), 0u);
  EXPECT_EQ(sl.steps(), 0u);
  EXPECT_EQ(arr.events().counts().slReads, 0u);
  EXPECT_THROW(sl.greaterThanInto(9, planes, flag, result),
               std::invalid_argument);
}

TEST(GreaterThanChain, FaultyBatchMatchesPerStepOracle) {
  // One faulty encodeBatchInto batch with repeated values and 2^M: every
  // stream equals the per-step sequence on a twin mat over the same planes.
  const DeviceParams device = apps::defaultFaultyDevice();
  const FaultModel fm(device, 0xf417, 20000);
  CrossbarArray arr(12, 256, device, 3);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::Probabilistic, &fm, 0x77);
  Periphery per(arr);
  ReramTrng trng(5);
  core::ImsngConfig cfg;
  cfg.randomPlaneBase = 1;
  cfg.outputRow = 0;
  core::Imsng imsng(arr, sl, per, trng, cfg);
  imsng.refreshRandomness();

  const std::vector<std::uint32_t> xs = {5, 5, 256, 0, 17, 256, 5, 255, 128};
  std::vector<sc::Bitstream> outs(xs.size());
  std::vector<sc::Bitstream*> ptrs;
  for (sc::Bitstream& o : outs) ptrs.push_back(&o);
  imsng.encodeBatchInto(xs, ptrs);

  CrossbarArray twinArr(4, 256, device);
  ScoutingLogic twin(twinArr, ScoutingLogic::Fidelity::Probabilistic, &fm,
                     0x77);
  std::vector<const sc::Bitstream*> planes;
  for (std::size_t i = 0; i < 8; ++i) planes.push_back(&arr.row(1 + i));
  sc::Bitstream flag;
  sc::Bitstream result;
  int faulty = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    perStepChain(twin, xs[i], planes, flag, result);
    EXPECT_EQ(outs[i], result) << "element " << i << " x=" << xs[i];
    sc::Bitstream exact(256);
    for (std::size_t c = 0; c < 256; ++c) {
      std::uint32_t rn = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        rn = (rn << 1) | (planes[b]->get(c) ? 1u : 0u);
      }
      if (xs[i] > rn) exact.set(c, true);
    }
    faulty += outs[i] != exact ? 1 : 0;
  }
  EXPECT_EQ(sl.steps(), twin.steps());
  EXPECT_GT(faulty, 0) << "the Table IV corner misdecides somewhere";
}

TEST(GreaterThanChain, ImsngRejectsMonteCarloMats) {
  CrossbarArray arr(12, 64, DeviceParams::ideal());
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::MonteCarlo);
  Periphery per(arr);
  ReramTrng trng(1);
  core::ImsngConfig cfg;
  cfg.randomPlaneBase = 1;
  cfg.outputRow = 0;
  EXPECT_THROW(core::Imsng(arr, sl, per, trng, cfg), std::invalid_argument);
  const sc::Bitstream plane(64);
  const std::vector<const sc::Bitstream*> planes(2, &plane);
  sc::Bitstream flag;
  sc::Bitstream result;
  EXPECT_THROW(sl.greaterThanInto(1, planes, flag, result),
               std::invalid_argument);
}

/// The column of rank \p rank by clearing the lowest set bit \p rank times.
std::uint64_t clearLowestSelect(std::uint64_t word, unsigned rank) {
  for (; rank > 0; --rank) word &= word - 1;
  return word & (~word + 1);
}

TEST(Select, MatchesClearLowestBitWalkAtEveryRank) {
  std::mt19937_64 eng(42);
  std::vector<std::uint64_t> words = {~std::uint64_t{0}, 1,
                                      std::uint64_t{1} << 63,
                                      0x8000000000000001ull,
                                      0x00ff00ff00ff00ffull};
  for (int i = 0; i < 3000; ++i) {
    std::uint64_t w = eng();
    if (i % 3 == 1) w &= eng();  // sparse
    if (i % 3 == 2) w |= eng();  // dense
    if (w != 0) words.push_back(w);
  }
  for (const std::uint64_t w : words) {
    const auto n = static_cast<unsigned>(std::popcount(w));
    for (unsigned r = 0; r < n; ++r) {
      ASSERT_EQ(sc::selectBit(w, r), clearLowestSelect(w, r))
          << std::hex << w << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace aimsc::reram
