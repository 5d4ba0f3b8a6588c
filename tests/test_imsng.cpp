// IMSNG — the in-memory stochastic number generator (paper Sec. III-A).
#include <gtest/gtest.h>

#include "core/imsng.hpp"
#include "sc/correlation.hpp"
#include "sc/sng.hpp"

namespace aimsc::core {
namespace {

struct Rig {
  explicit Rig(std::size_t n = 256, const ImsngConfig& cfg = ImsngConfig{},
               const reram::DeviceParams& dev = reram::DeviceParams::ideal(),
               std::uint64_t seed = 1)
      : array(12, n, dev, seed),
        scouting(array),
        periphery(array),
        trng(seed ^ 0x7124),
        imsng(array, scouting, periphery, trng, withRows(cfg)) {}

  static ImsngConfig withRows(ImsngConfig cfg) {
    cfg.randomPlaneBase = 1;
    cfg.outputRow = 0;
    return cfg;
  }

  reram::CrossbarArray array;
  reram::ScoutingLogic scouting;
  reram::Periphery periphery;
  reram::ReramTrng trng;
  Imsng imsng;
};

TEST(Imsng, ThresholdZeroAndFull) {
  Rig rig;
  sc::Bitstream s;
  rig.imsng.generateThresholdInto(0, s);
  EXPECT_EQ(s.popcount(), 0u);
  rig.imsng.generateThresholdInto(256, s);
  EXPECT_EQ(s.popcount(), 256u);
  EXPECT_THROW(rig.imsng.generateThresholdInto(257, s), std::invalid_argument);
}

TEST(Imsng, MatchesSoftwareComparatorExactly) {
  // The in-memory greater-than over stored planes must equal a software
  // comparison against the very same random numbers.
  Rig rig;
  rig.imsng.refreshRandomness();
  // Reconstruct the per-column random numbers from the planes (MSB first).
  std::vector<std::uint32_t> rn(256, 0);
  for (int bit = 0; bit < 8; ++bit) {
    const auto& plane = rig.array.row(1 + static_cast<std::size_t>(bit));
    for (std::size_t c = 0; c < 256; ++c) {
      if (plane.get(c)) rn[c] |= 1u << (7 - bit);
    }
  }
  sc::Bitstream s;
  for (const std::uint32_t x : {1u, 50u, 128u, 200u, 255u}) {
    rig.imsng.generateThresholdInto(x, s);
    for (std::size_t c = 0; c < 256; ++c) {
      EXPECT_EQ(s.get(c), x > rn[c]) << "x=" << x << " col=" << c;
    }
  }
}

TEST(Imsng, ValueTracksProbability) {
  Rig rig(2048);
  sc::Bitstream s;
  for (const double p : {0.1, 0.3, 0.5, 0.8, 0.95}) {
    rig.imsng.refreshRandomness();
    rig.imsng.generateThresholdInto(sc::quantizeProbability(p, 8), s);
    EXPECT_NEAR(s.value(), p, 0.05) << p;
  }
}

TEST(Imsng, SharedPlanesGiveMaximallyCorrelatedStreams) {
  Rig rig(1024);
  rig.imsng.refreshRandomness();
  sc::Bitstream a;
  sc::Bitstream b;
  rig.imsng.generateThresholdInto(sc::quantizeProbability(0.3, 8), a);
  rig.imsng.generateThresholdInto(sc::quantizeProbability(0.7, 8), b);
  EXPECT_NEAR(sc::scc(a, b), 1.0, 1e-9);
  EXPECT_EQ((a & ~b).popcount(), 0u);  // monotone containment
}

TEST(Imsng, RefreshedPlanesGiveIndependentStreams) {
  Rig rig(4096);
  sc::Bitstream a;
  sc::Bitstream b;
  rig.imsng.refreshRandomness();
  rig.imsng.generateThresholdInto(128, a);
  rig.imsng.refreshRandomness();
  rig.imsng.generateThresholdInto(128, b);
  EXPECT_LT(std::abs(sc::scc(a, b)), 0.1);
}

TEST(Imsng, CommitWritesOutputRow) {
  Rig rig;
  sc::Bitstream s;
  rig.imsng.generateThresholdInto(128, s);
  EXPECT_EQ(rig.array.row(0), s);
}

TEST(Imsng, OptVariantChargesGenericReadsNoIntermediateWrites) {
  ImsngConfig cfg;
  cfg.variant = ImsngConfig::Variant::Opt;
  Rig rig(256, cfg);
  rig.imsng.refreshRandomness();
  rig.array.events().reset();
  sc::Bitstream s;
  rig.imsng.generateThresholdInto(100, s);
  const auto& ev = rig.array.events().counts();
  EXPECT_EQ(ev.slReads, 40u);    // 5 * M with M = 8 (paper parity)
  EXPECT_EQ(ev.rowWrites, 1u);   // only the final SBS commit
}

TEST(Imsng, NaiveVariantCharges2MWrites) {
  ImsngConfig cfg;
  cfg.variant = ImsngConfig::Variant::Naive;
  Rig rig(256, cfg);
  rig.imsng.refreshRandomness();
  rig.array.events().reset();
  sc::Bitstream s;
  rig.imsng.generateThresholdInto(100, s);
  const auto& ev = rig.array.events().counts();
  EXPECT_EQ(ev.slReads, 40u);
  EXPECT_EQ(ev.rowWrites, 1u + 16u);  // 2*M intermediate + final commit
}

TEST(Imsng, NaiveAndOptProduceIdenticalStreams) {
  ImsngConfig naive;
  naive.variant = ImsngConfig::Variant::Naive;
  ImsngConfig opt;
  opt.variant = ImsngConfig::Variant::Opt;
  Rig a(512, naive, reram::DeviceParams::ideal(), 77);
  Rig b(512, opt, reram::DeviceParams::ideal(), 77);
  a.imsng.refreshRandomness();
  b.imsng.refreshRandomness();
  sc::Bitstream sa;
  sc::Bitstream sb;
  for (const std::uint32_t x : {10u, 100u, 230u}) {
    a.imsng.generateThresholdInto(x, sa);
    b.imsng.generateThresholdInto(x, sb);
    EXPECT_EQ(sa, sb);
  }
}

TEST(Imsng, NoCommitOption) {
  ImsngConfig cfg;
  cfg.commitResult = false;
  Rig rig(256, cfg);
  rig.imsng.refreshRandomness();
  rig.array.events().reset();
  sc::Bitstream s;
  rig.imsng.generateThresholdInto(100, s);
  EXPECT_EQ(rig.array.events().counts().rowWrites, 0u);
}

TEST(Imsng, SegmentSizeSweep) {
  // Larger M = finer probability resolution: check the quantization floor.
  for (const int m : {5, 7, 9}) {
    ImsngConfig cfg;
    cfg.mBits = m;
    Rig rig(4096, cfg);
    rig.imsng.refreshRandomness();
    const double p = 0.37;
    sc::Bitstream s;
    rig.imsng.generateThresholdInto(sc::quantizeProbability(p, m), s);
    EXPECT_NEAR(s.value(), p, 0.05 + 1.0 / (1 << m)) << "M=" << m;
  }
}

TEST(Imsng, ConfigValidation) {
  reram::CrossbarArray arr(4, 64, reram::DeviceParams::ideal());
  reram::ScoutingLogic sl(arr);
  reram::Periphery per(arr);
  reram::ReramTrng trng(1);
  ImsngConfig bad;
  bad.mBits = 8;
  bad.randomPlaneBase = 0;
  bad.outputRow = 3;  // overlaps planes [0, 8)
  EXPECT_THROW(Imsng(arr, sl, per, trng, bad), std::invalid_argument);
  bad.randomPlaneBase = 1;  // planes would exceed 4 rows
  EXPECT_THROW(Imsng(arr, sl, per, trng, bad), std::invalid_argument);
  bad = ImsngConfig{};
  bad.mBits = 0;
  EXPECT_THROW(Imsng(arr, sl, per, trng, bad), std::invalid_argument);
}

TEST(Imsng, RobustUnderCimFaults) {
  // Paper contribution 3: SBS generation keeps working under substantial
  // CIM failures — value error grows but stays bounded.
  reram::DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.1;
  reram::CrossbarArray arr(12, 4096, p, 5);
  reram::FaultModel fm(p, 6, 30000);
  reram::ScoutingLogic sl(arr, reram::ScoutingLogic::Fidelity::Probabilistic,
                          &fm, 7);
  reram::Periphery per(arr);
  reram::ReramTrng trng(8);
  ImsngConfig cfg = Rig::withRows(ImsngConfig{});
  Imsng imsng(arr, sl, per, trng, cfg);
  imsng.refreshRandomness();
  sc::Bitstream s;
  for (const double target : {0.2, 0.5, 0.8}) {
    imsng.generateThresholdInto(sc::quantizeProbability(target, 8), s);
    EXPECT_NEAR(s.value(), target, 0.1);
  }
}

}  // namespace
}  // namespace aimsc::core
