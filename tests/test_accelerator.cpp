// Full accelerator facade: end-to-end B-to-S -> op -> S-to-B flows.
#include <gtest/gtest.h>

#include <vector>

#include "core/accelerator.hpp"
#include "sc/correlation.hpp"

namespace aimsc::core {
namespace {

AcceleratorConfig idealConfig(std::size_t n = 1024) {
  AcceleratorConfig cfg;
  cfg.streamLength = n;
  cfg.device = reram::DeviceParams::ideal();
  return cfg;
}

TEST(Accelerator, EncodeDecodeRoundTrip) {
  Accelerator acc(idealConfig(2048));
  const std::vector<std::uint8_t> values{0, 25, 100, 180, 255};
  std::vector<sc::Bitstream> streams(values.size());
  std::vector<sc::Bitstream*> outs;
  for (auto& s : streams) outs.push_back(&s);
  acc.encodePixelsInto(values, outs);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(acc.decodePixel(streams[i]), values[i], 10)
        << "v=" << static_cast<int>(values[i]);
  }
}

TEST(Accelerator, EndToEndMultiplication) {
  Accelerator acc(idealConfig(4096));
  sc::Bitstream x;
  sc::Bitstream y;
  sc::Bitstream product;
  acc.encodeProbInto(x, 0.5);
  acc.encodeProbInto(y, 0.6);
  acc.ops().multiplyInto(product, x, y);
  EXPECT_NEAR(acc.decodeProb(product), 0.3, 0.04);
}

TEST(Accelerator, EndToEndDivision) {
  Accelerator acc(idealConfig(4096));
  sc::Bitstream x;
  sc::Bitstream y;
  sc::Bitstream q;
  acc.encodeProbInto(x, 0.3);
  acc.encodeProbCorrelatedInto(y, 0.6);
  EXPECT_GT(sc::scc(x, y), 0.99);
  acc.ops().divideInto(q, x, y);
  EXPECT_NEAR(acc.decodeProb(q), 0.5, 0.06);
}

TEST(Accelerator, CorrelationControlAcrossEncodes) {
  Accelerator acc(idealConfig(4096));
  sc::Bitstream a;
  sc::Bitstream b;
  sc::Bitstream c;
  acc.encodeProbInto(a, 0.4);
  acc.encodeProbCorrelatedInto(b, 0.9);
  EXPECT_NEAR(sc::scc(a, b), 1.0, 1e-9);
  acc.encodeProbInto(c, 0.4);  // fresh planes
  EXPECT_LT(std::abs(sc::scc(a, c)), 0.15);
}

TEST(Accelerator, HalfStreamIsBalanced) {
  Accelerator acc(idealConfig(8192));
  sc::Bitstream half;
  acc.encodeProbInto(half, 0.5);
  EXPECT_NEAR(half.value(), 0.5, 0.03);
}

TEST(Accelerator, EventAccountingAccumulates) {
  Accelerator acc(idealConfig(256));
  acc.resetEvents();
  sc::Bitstream x;
  acc.encodeProbInto(x, 0.5);
  const auto& ev = acc.events();
  EXPECT_EQ(ev.slReads, 40u);            // 5*M generic schedule
  EXPECT_EQ(ev.trngBits, 8u * 256u);     // fresh planes
  EXPECT_EQ(ev.rowWrites, 1u);           // SBS commit
  acc.decodeCode(x);
  EXPECT_EQ(acc.events().adcConversions, 1u);
  acc.resetEvents();
  EXPECT_EQ(acc.events().slReads, 0u);
}

TEST(Accelerator, StoredDecodeChargesColumnWrite) {
  Accelerator acc(idealConfig(256));
  sc::Bitstream x;
  acc.encodeProbInto(x, 0.5);
  acc.resetEvents();
  acc.decodePixelStored(x);
  EXPECT_EQ(acc.events().rowWrites, 1u);
  EXPECT_EQ(acc.events().adcConversions, 1u);
}

TEST(Accelerator, NoCommitConfig) {
  AcceleratorConfig cfg = idealConfig(256);
  cfg.commitSbs = false;
  Accelerator acc(cfg);
  acc.resetEvents();
  sc::Bitstream s;
  acc.encodeProbInto(s, 0.5);
  EXPECT_EQ(acc.events().rowWrites, 0u);
}

TEST(Accelerator, FaultInjectionProducesNoisierStreams) {
  AcceleratorConfig faulty = idealConfig(4096);
  faulty.deviceVariability = true;
  faulty.device.sigmaLrs = 0.12;
  faulty.device.sigmaHrs = 1.2;
  faulty.faultModelSamples = 20000;
  Accelerator acc(faulty);
  ASSERT_NE(acc.faultModel(), nullptr);
  // Streams remain usable (the robustness claim).
  sc::Bitstream s;
  for (const double p : {0.25, 0.5, 0.75}) {
    acc.encodeProbInto(s, p);
    EXPECT_NEAR(acc.decodeProb(s), p, 0.12);
  }
}

TEST(Accelerator, ValidatesConfig) {
  AcceleratorConfig bad;
  bad.streamLength = 0;
  EXPECT_THROW(Accelerator{bad}, std::invalid_argument);
}

TEST(Accelerator, DifferentSeedsDifferentStreams) {
  AcceleratorConfig c1 = idealConfig(512);
  AcceleratorConfig c2 = idealConfig(512);
  c1.seed = 1;
  c2.seed = 2;
  Accelerator a1(c1);
  Accelerator a2(c2);
  sc::Bitstream s1;
  sc::Bitstream s2;
  a1.encodeProbInto(s1, 0.5);
  a2.encodeProbInto(s2, 0.5);
  EXPECT_NE(s1, s2);
}

TEST(Accelerator, SameSeedReproduces) {
  AcceleratorConfig cfg = idealConfig(512);
  cfg.seed = 99;
  Accelerator a1(cfg);
  Accelerator a2(cfg);
  sc::Bitstream s1;
  sc::Bitstream s2;
  a1.encodeProbInto(s1, 0.3);
  a2.encodeProbInto(s2, 0.3);
  EXPECT_EQ(s1, s2);
}

TEST(Accelerator, TrngBiasDegradesAccuracyGracefully) {
  // RNG-agnosticism: even a miscalibrated TRNG yields usable streams, just
  // with a systematic offset bounded by the bias.
  AcceleratorConfig cfg = idealConfig(8192);
  cfg.trngBias = 0.05;  // P(1) = 0.55 raw bits
  Accelerator acc(cfg);
  sc::Bitstream s;
  acc.encodeProbInto(s, 0.5);
  const double v = acc.decodeProb(s);
  EXPECT_NEAR(v, 0.5, 0.25);
  EXPECT_GT(v, 0.2);
  EXPECT_LT(v, 0.8);
}

class AcceleratorIntoForms : public ::testing::TestWithParam<bool> {};

TEST_P(AcceleratorIntoForms, PixelBatchesMatchPerValueEncodes) {
  // Identically seeded mats, one encoding pixel batches and one encoding
  // each value on its own (a fresh batch is a fresh encode followed by
  // correlated ones): same streams, epochs and events under Ideal sensing
  // (byte-cache path, memoized duplicates, the p = 1 constant) and under
  // Probabilistic sensing (per-value dataflow, same misdecision draws).
  AcceleratorConfig cfg = idealConfig(256);
  if (GetParam()) {
    cfg.deviceVariability = true;
    cfg.device.sigmaLrs = 0.12;
    cfg.device.sigmaHrs = 1.2;
    cfg.faultModelSamples = 20000;
  }
  Accelerator batched(cfg);
  Accelerator single(cfg);
  const std::vector<std::uint8_t> rows[] = {
      {0, 17, 128, 17, 255, 200}, {3, 3, 3}, {90, 250, 1, 128}};
  for (const auto& values : rows) {
    for (const bool correlated : {false, true}) {
      std::vector<sc::Bitstream> got(values.size(), sc::Bitstream(7, true));
      std::vector<sc::Bitstream*> outs;
      for (auto& s : got) outs.push_back(&s);
      if (correlated) {
        batched.encodePixelsCorrelatedInto(values, outs);
      } else {
        batched.encodePixelsInto(values, outs);
      }
      std::vector<sc::Bitstream> want(values.size());
      for (std::size_t k = 0; k < values.size(); ++k) {
        const double p = static_cast<double>(values[k]) / 255.0;
        if (k == 0 && !correlated) {
          single.encodeProbInto(want[k], p);
        } else {
          single.encodeProbCorrelatedInto(want[k], p);
        }
      }
      EXPECT_EQ(got, want);
    }
  }
  EXPECT_EQ(batched.events(), single.events());
}

INSTANTIATE_TEST_SUITE_P(Fidelity, AcceleratorIntoForms, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Probabilistic" : "Ideal";
                         });

}  // namespace
}  // namespace aimsc::core
