// Reliability extensions: the unified FaultPlan contract (fault classes on
// every substrate, bit-identical faulty tiled runs), N-modular redundancy
// voting, gate-level DMR/TMR protection for the binary CIM baseline
// (Sec. IV-C's "protection schemes exist but are costly"), and the wear
// campaign integration.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/runner.hpp"
#include "bincim/aritpim.hpp"
#include "core/accelerator.hpp"
#include "reliability/fault_plan.hpp"
#include "reliability/fault_rng.hpp"
#include "reliability/injector.hpp"
#include "reliability/redundancy.hpp"
#include "reram/wear.hpp"

namespace aimsc {
namespace {

reram::DeviceParams leakyDevice() {
  reram::DeviceParams p;
  p.sigmaLrs = 0.15;
  p.sigmaHrs = 1.4;
  return p;
}

TEST(DmrProtection, FaultFreeBehaviourUnchangedButCostlier) {
  bincim::MagicEngine plain(nullptr);
  bincim::MagicEngine dmr(nullptr);
  dmr.setProtection(bincim::MagicEngine::Protection::Dmr);
  bincim::AritPim pPlain(plain);
  bincim::AritPim pDmr(dmr);
  EXPECT_EQ(pPlain.mul(123, 45, 8), pDmr.mul(123, 45, 8));
  // Fault-free DMR executes each gate exactly twice (no tiebreaks).
  EXPECT_EQ(dmr.gateOps(), 2 * plain.gateOps());
}

TEST(DmrProtection, ReducesArithmeticErrors) {
  const reram::DeviceParams dev = leakyDevice();
  reram::FaultModel fm(dev, 11, 30000);
  auto countErrors = [&](bincim::MagicEngine::Protection prot) {
    bincim::MagicEngine eng(&fm, 13);
    eng.setProtection(prot);
    bincim::AritPim pim(eng);
    int errors = 0;
    for (int i = 0; i < 300; ++i) {
      if (pim.mul(200, 200, 8) != 40000u) ++errors;
    }
    return errors;
  };
  const int unprotected = countErrors(bincim::MagicEngine::Protection::None);
  const int protectedErrs = countErrors(bincim::MagicEngine::Protection::Dmr);
  EXPECT_GT(unprotected, 0);
  EXPECT_LT(protectedErrs * 3, unprotected);
}

// --- FaultPlan contract -----------------------------------------------------

TEST(FaultPlan, DefaultRunConfigInjectsNothing) {
  apps::RunConfig cfg;
  EXPECT_FALSE(cfg.faults.any());
}

TEST(FaultPlan, DeviceOnlyBuildsVariabilityOnlyPlan) {
  const reliability::FaultPlan plan =
      reliability::FaultPlan::deviceOnly(leakyDevice());
  EXPECT_TRUE(plan.deviceVariability);
  EXPECT_FALSE(plan.anyStreamClass());
  EXPECT_DOUBLE_EQ(plan.device.sigmaHrs, leakyDevice().sigmaHrs);
}

// --- FaultedBackend decorator ------------------------------------------------

reliability::FaultPlan streamFaultPlan() {
  reliability::FaultPlan plan;
  plan.transientFlipRate = 2e-3;
  plan.stuckAtRate = 0.02;
  return plan;
}

std::unique_ptr<core::ScBackend> faultedSwSc(std::uint64_t seed) {
  core::BackendFactoryConfig bc;
  bc.seed = seed;
  bc.faults = streamFaultPlan();
  return core::makeBackend(core::DesignKind::SwScLfsr, bc);
}

TEST(FaultRng, IntegerDrawMatchesFaultSiteBernoulli) {
  // The injector's per-epoch key and integer threshold decide exactly as
  // faultSiteBernoulli, at the listed rates and at each key's own uniform
  // and its two neighbouring doubles.
  std::mt19937_64 eng(31);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t seed = eng();
    const std::uint64_t lane = eng() % 16;
    const std::uint64_t epoch = eng() % 100000;
    const std::uint64_t site = eng() % 1024;
    const std::uint64_t key = reliability::faultEpochKey(seed, lane, epoch);
    const double u =
        reliability::faultSiteUniform(seed, lane, epoch, site);
    for (const double p : {0.0, 1e-9, 1e-3, 0.03, 0.5, 1.0, 1.5, -0.5, nan,
                           u, std::nextafter(u, 2.0),
                           std::nextafter(u, -1.0)}) {
      ASSERT_EQ(reliability::faultSiteDraw(key, site,
                                           reliability::faultThreshold(p)),
                reliability::faultSiteBernoulli(seed, lane, epoch, site, p))
          << "p=" << p << " seed=" << seed << " site=" << site;
    }
  }
}

TEST(FaultedBackend, DeterministicAcrossInstancesAndActuallyInjects) {
  const std::vector<std::uint8_t> px{0, 31, 100, 200, 255};
  const auto a = faultedSwSc(9)->encodePixels(px);
  const auto b = faultedSwSc(9)->encodePixels(px);
  core::BackendFactoryConfig clean;
  clean.seed = 9;
  const auto c =
      core::makeBackend(core::DesignKind::SwScLfsr, clean)->encodePixels(px);
  bool anyCorrupted = false;
  for (std::size_t i = 0; i < px.size(); ++i) {
    EXPECT_EQ(a[i].stream, b[i].stream) << "fault draws not reproducible";
    anyCorrupted = anyCorrupted || a[i].stream != c[i].stream;
  }
  EXPECT_TRUE(anyCorrupted) << "fault plan was a no-op";
}

TEST(FaultedBackend, IntoFormBurnsIdenticalFaultEpochs) {
  const std::vector<std::uint8_t> px{40, 220};
  const auto alloc = faultedSwSc(5);
  const auto into = faultedSwSc(5);
  const auto ax = alloc->encodePixels(px);
  std::vector<core::ScValue> ix(px.size());
  into->encodePixelsInto(px, ix);
  const core::ScValue am = alloc->multiply(ax[0], ax[1]);
  core::ScValue im;
  into->multiplyInto(im, ix[0], ix[1]);
  EXPECT_EQ(ax[0].stream, ix[0].stream);
  EXPECT_EQ(am.stream, im.stream);
}

// --- faulty-run determinism across thread counts ----------------------------

TEST(FaultyRuns, BitIdenticalAcrossThreadCounts) {
  // The tentpole contract: same seed + same plan => bit-identical output at
  // ANY worker-thread count, on every substrate (lane-pinned tiles +
  // counter-based fault RNG).
  reliability::FaultPlan plan = streamFaultPlan();
  plan.deviceVariability = true;
  plan.device = apps::defaultFaultyDevice();
  plan.faultModelSamples = 4000;  // keep the Monte-Carlo tables test-cheap

  for (const auto design :
       {apps::DesignKind::SwScLfsr, apps::DesignKind::SwScSobol,
        apps::DesignKind::SwScSimd, apps::DesignKind::ReramSc,
        apps::DesignKind::BinaryCim}) {
    apps::RunConfig cfg;
    cfg.width = 12;
    cfg.height = 12;
    cfg.faults = plan;
    std::vector<std::uint8_t> reference;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      apps::ParallelConfig par;
      par.lanes = 4;
      par.rowsPerTile = 2;
      par.threads = threads;
      const img::Image out =
          apps::runAppDetailed(apps::AppKind::Gamma, design, cfg, par).output;
      if (reference.empty()) {
        reference = out.pixels();
      } else {
        EXPECT_EQ(out.pixels(), reference)
            << core::designKindName(design) << " at " << threads << " threads";
      }
    }
  }
}

// --- N-modular redundancy ----------------------------------------------------

TEST(Redundancy, VoteImagesRules) {
  using reliability::Vote;
  const std::vector<std::vector<std::uint8_t>> odd{{10}, {200}, {210}};
  EXPECT_EQ(reliability::voteImages(odd, Vote::Median)[0], 200);
  // Bitwise majority: 0b11110000, 0b00001111, 0b11111111 -> 0b11111111.
  const std::vector<std::vector<std::uint8_t>> bits{{0xF0}, {0x0F}, {0xFF}};
  EXPECT_EQ(reliability::voteImages(bits, Vote::Bitwise)[0], 0xFF);
  // Even-count ties: bitwise keeps replica 0's bit, median rounds the mean.
  const std::vector<std::vector<std::uint8_t>> even{{5}, {9}};
  EXPECT_EQ(reliability::voteImages(even, Vote::Bitwise)[0], 5);
  EXPECT_EQ(reliability::voteImages(even, Vote::Median)[0], 7);
  EXPECT_THROW(reliability::voteImages({}, Vote::Median),
               std::invalid_argument);
  EXPECT_THROW(reliability::voteImages(odd, Vote::Auto),
               std::invalid_argument);
  EXPECT_THROW(reliability::voteImages({{1}, {2, 3}}, Vote::Median),
               std::invalid_argument);
}

TEST(Redundancy, VoteImagesSingleReplicaIsPassthrough) {
  using reliability::Vote;
  const std::vector<std::vector<std::uint8_t>> one{{0, 37, 128, 255}};
  EXPECT_EQ(reliability::voteImages(one, Vote::Bitwise), one[0]);
  EXPECT_EQ(reliability::voteImages(one, Vote::Median), one[0]);
}

TEST(Redundancy, VoteImagesEvenReplicaCounts) {
  using reliability::Vote;
  // R = 4, per-bit 2-2 ties: bitwise keeps replica 0's bit, so a split
  // vote can never be worse than trusting replica 0 alone.
  const std::vector<std::vector<std::uint8_t>> four{
      {0b1010'0001}, {0b0101'0001}, {0b1010'1110}, {0b0101'1110}};
  EXPECT_EQ(reliability::voteImages(four, Vote::Bitwise)[0], 0b1010'0001);
  // R = 4 median: mean of the two middle values (20, 30) -> 25.
  const std::vector<std::vector<std::uint8_t>> spread{{10}, {20}, {30}, {250}};
  EXPECT_EQ(reliability::voteImages(spread, Vote::Median)[0], 25);
  // Rounding: middle pair (20, 31) has mean 25.5 -> rounds to 26.
  const std::vector<std::vector<std::uint8_t>> round{{10}, {20}, {31}, {250}};
  EXPECT_EQ(reliability::voteImages(round, Vote::Median)[0], 26);
}

TEST(Redundancy, VoteImagesMixedSizeRejected) {
  using reliability::Vote;
  const std::vector<std::vector<std::uint8_t>> mixed{{1, 2}, {3, 4}, {5}};
  EXPECT_THROW(reliability::voteImages(mixed, Vote::Bitwise),
               std::invalid_argument);
  EXPECT_THROW(reliability::voteImages(mixed, Vote::Median),
               std::invalid_argument);
}

TEST(Redundancy, AutoVoteResolvesPerDesign) {
  using reliability::Vote;
  // Word-domain substrates vote median (heavy-tailed bit-weighted errors);
  // stream substrates vote bitwise (popcount noise).
  EXPECT_EQ(reliability::resolveVote(Vote::Auto, core::DesignKind::BinaryCim),
            Vote::Median);
  EXPECT_EQ(reliability::resolveVote(Vote::Auto, core::DesignKind::Reference),
            Vote::Median);
  EXPECT_EQ(reliability::resolveVote(Vote::Auto, core::DesignKind::SwScLfsr),
            Vote::Bitwise);
  EXPECT_EQ(reliability::resolveVote(Vote::Auto, core::DesignKind::SwScSobol),
            Vote::Bitwise);
  EXPECT_EQ(reliability::resolveVote(Vote::Auto, core::DesignKind::SwScSimd),
            Vote::Bitwise);
  EXPECT_EQ(reliability::resolveVote(Vote::Auto, core::DesignKind::ReramSc),
            Vote::Bitwise);
  // Explicit rules pass through untouched.
  EXPECT_EQ(reliability::resolveVote(Vote::Median, core::DesignKind::ReramSc),
            Vote::Median);
  EXPECT_EQ(reliability::resolveVote(Vote::Bitwise, core::DesignKind::BinaryCim),
            Vote::Bitwise);
}

double cimGammaSsim(std::size_t replicas, core::CimProtection prot) {
  apps::RunConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  cfg.faults =
      reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice(), 4000);
  cfg.redundancy.replicas = replicas;
  cfg.bincimProtection = prot;
  return apps::runApp(apps::AppKind::Gamma, apps::DesignKind::BinaryCim, cfg)
      .ssimPct;
}

TEST(Redundancy, VoteMonotoneOnBinaryCim) {
  // The median vote kills heavy-tailed word-bit outliers, so quality is
  // non-decreasing in the replica count at the Table IV faulty corner.
  const double r1 = cimGammaSsim(1, core::CimProtection::None);
  const double r3 = cimGammaSsim(3, core::CimProtection::None);
  const double r5 = cimGammaSsim(5, core::CimProtection::None);
  EXPECT_GT(r3, r1);
  EXPECT_GT(r5, r3);
}

TEST(Redundancy, TmrRecoversBinaryCimGamma) {
  // Gate-level retry-and-vote restores the exact design at the corner where
  // it otherwise collapses (the acceptance criterion's SSIM > 80).
  EXPECT_LT(cimGammaSsim(1, core::CimProtection::None), 50.0);
  EXPECT_GT(cimGammaSsim(1, core::CimProtection::Tmr), 80.0);
}

// --- TMR gate protection -----------------------------------------------------

TEST(TmrProtection, FaultFreeBehaviourUnchangedAtTripleCost) {
  bincim::MagicEngine plain(nullptr);
  bincim::MagicEngine tmr(nullptr);
  tmr.setProtection(bincim::MagicEngine::Protection::Tmr);
  bincim::AritPim pPlain(plain);
  bincim::AritPim pTmr(tmr);
  EXPECT_EQ(pPlain.mul(123, 45, 8), pTmr.mul(123, 45, 8));
  EXPECT_EQ(tmr.gateOps(), 3 * plain.gateOps());
}

TEST(TmrProtection, SuppressesArithmeticErrors) {
  const reram::DeviceParams dev = leakyDevice();
  reram::FaultModel fm(dev, 11, 30000);
  auto countErrors = [&](bincim::MagicEngine::Protection prot) {
    bincim::MagicEngine eng(&fm, 13);
    eng.setProtection(prot);
    bincim::AritPim pim(eng);
    int errors = 0;
    for (int i = 0; i < 300; ++i) {
      if (pim.mul(200, 200, 8) != 40000u) ++errors;
    }
    return errors;
  };
  const int unprotected = countErrors(bincim::MagicEngine::Protection::None);
  const int tmrErrs = countErrors(bincim::MagicEngine::Protection::Tmr);
  EXPECT_GT(unprotected, 0);
  // Residual ~3p^2 per gate: at least an order of magnitude better.
  EXPECT_LT(tmrErrs * 10, unprotected);
}

// --- shared FaultModel thread safety ----------------------------------------

TEST(FaultModelSharing, ConcurrentQueriesMatchSerial) {
  const reram::DeviceParams dev = leakyDevice();
  std::vector<std::tuple<reram::SlOp, int, int>> queries;
  for (const auto op : {reram::SlOp::And, reram::SlOp::Or, reram::SlOp::Xor,
                        reram::SlOp::Nor}) {
    for (int rows = 2; rows <= 4; ++rows) {
      for (int ones = 0; ones <= rows; ++ones) {
        queries.emplace_back(op, ones, rows);
      }
    }
  }

  reram::FaultModel serial(dev, 21, 2000);
  std::map<std::tuple<reram::SlOp, int, int>, double> expected;
  for (const auto& [op, ones, rows] : queries) {
    expected[{op, ones, rows}] = serial.misdecisionProb(op, ones, rows);
  }

  // Hammer one shared model from 8 threads; every entry's seed is derived
  // from its key, so whoever computes first must land on the same value.
  reram::FaultModel shared(dev, 21, 2000);
  std::vector<std::thread> workers;
  std::vector<int> mismatches(8, 0);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        for (const auto& [op, ones, rows] : queries) {
          if (shared.misdecisionProb(op, ones, rows) !=
              expected[{op, ones, rows}]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[t], 0);
}

// --- wear-leveling campaign integration --------------------------------------

TEST(WearCampaign, RotationKeepsSpreadBoundedUnderSustainedRefresh) {
  core::AcceleratorConfig ac;
  ac.streamLength = 64;
  ac.wearWindowRows = 16;  // two 8-row plane positions
  core::Accelerator acc(ac);
  for (int i = 0; i < 25; ++i) acc.refreshRandomness();
  // Every refresh deposits at the next rotation base, so the window rows
  // differ by at most one pass while both halves absorb traffic.
  EXPECT_LE(reram::WearLeveler::wearSpread(acc.array(), 1, 16), 1u);
  EXPECT_GT(acc.array().rowWriteCycles(1), 0u);
  EXPECT_GT(acc.array().rowWriteCycles(9), 0u);
}

TEST(WearCampaign, RotationNeverChangesOutputBits) {
  apps::RunConfig plain;
  plain.width = 8;
  plain.height = 8;
  apps::RunConfig rotated = plain;
  rotated.wearWindowRows = 16;
  const img::Image a = apps::runAppDetailed(apps::AppKind::Gamma,
                                            apps::DesignKind::ReramSc, plain)
                           .output;
  const img::Image b = apps::runAppDetailed(apps::AppKind::Gamma,
                                            apps::DesignKind::ReramSc, rotated)
                           .output;
  EXPECT_EQ(a.pixels(), b.pixels());
}

TEST(WearCampaign, WearDriftDegradesAgedDevices) {
  auto ssimAt = [](std::uint64_t preload) {
    apps::RunConfig cfg;
    cfg.width = 12;
    cfg.height = 12;
    cfg.faults.wearDriftPerMegaCycle = 1e-3;
    cfg.faults.wearPreloadCycles = preload;
    cfg.wearWindowRows = 16;
    return apps::runApp(apps::AppKind::Gamma, apps::DesignKind::ReramSc, cfg)
        .ssimPct;
  };
  // A fresh device is unaffected; 80M preloaded cycles cost real quality.
  EXPECT_GT(ssimAt(0), ssimAt(80'000'000) + 5.0);
}

TEST(DmrProtection, GateCostApproximatelyDoubles) {
  const reram::DeviceParams dev = leakyDevice();
  reram::FaultModel fm(dev, 17, 30000);
  bincim::MagicEngine eng(&fm, 19);
  eng.setProtection(bincim::MagicEngine::Protection::Dmr);
  bincim::AritPim pim(eng);
  eng.resetCounter();
  pim.mul(170, 85, 8);
  const auto dmrOps = eng.gateOps();
  bincim::MagicEngine plain(&fm, 19);
  bincim::AritPim pPlain(plain);
  pPlain.mul(170, 85, 8);
  const double ratio = static_cast<double>(dmrOps) /
                       static_cast<double>(plain.gateOps());
  EXPECT_GT(ratio, 1.95);
  EXPECT_LT(ratio, 2.2);  // tiebreaks are rare
}

}  // namespace
}  // namespace aimsc
