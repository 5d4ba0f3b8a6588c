// Periphery latches, in-array TRNG, and the ADC S-to-B converter.
#include <gtest/gtest.h>

#include "reram/adc.hpp"
#include "reram/periphery.hpp"
#include "reram/trng.hpp"

namespace aimsc::reram {
namespace {

// --- periphery ---------------------------------------------------------------

TEST(Periphery, LatchCaptureAndCommit) {
  CrossbarArray arr(4, 16, DeviceParams::ideal());
  Periphery per(arr);
  const auto v = sc::Bitstream::fromString("1010101010101010");
  per.captureL0(v);
  EXPECT_EQ(per.l0(), v);
  per.commit(1);
  EXPECT_EQ(arr.row(1), v);
  EXPECT_EQ(arr.events().counts().rowWrites, 1u);
}

TEST(Periphery, WidthValidation) {
  CrossbarArray arr(4, 8, DeviceParams::ideal());
  Periphery per(arr);
  EXPECT_THROW(per.captureL0(sc::Bitstream(9)), std::invalid_argument);
}

// --- TRNG --------------------------------------------------------------------

TEST(ReramTrng, FillsRowsWithBalancedBits) {
  CrossbarArray arr(10, 2048, DeviceParams::ideal());
  ReramTrng trng(123);
  trng.fillRows(arr, 2, 8);
  for (std::size_t r = 2; r < 10; ++r) {
    EXPECT_NEAR(arr.row(r).value(), 0.5, 0.06) << "row " << r;
  }
  EXPECT_EQ(arr.row(0).popcount(), 0u);  // untouched rows stay clear
  EXPECT_EQ(arr.events().counts().trngBits, 8u * 2048u);
}

TEST(ReramTrng, RowsAreDistinct) {
  CrossbarArray arr(4, 512, DeviceParams::ideal());
  ReramTrng trng(9);
  trng.fillRows(arr, 0, 4);
  EXPECT_NE(arr.row(0), arr.row(1));
  EXPECT_NE(arr.row(1), arr.row(2));
}

TEST(ReramTrng, BiasPropagates) {
  CrossbarArray arr(2, 8192, DeviceParams::ideal());
  ReramTrng trng(10, 0.15);
  trng.fillRows(arr, 0, 2);
  EXPECT_NEAR(arr.row(0).value(), 0.65, 0.03);
}

// --- ADC ---------------------------------------------------------------------

TEST(AdcModel, ExactPopcountAt8BitsFor255Stream) {
  AdcModel adc;
  // code = round(pc * 255 / N); for N = 255 this is the exact popcount.
  for (const std::size_t pc : {0u, 1u, 100u, 200u, 255u}) {
    EXPECT_EQ(adc.convert(pc, 255), pc);
  }
}

TEST(AdcModel, QuantizesLongerStreams) {
  AdcModel adc;
  EXPECT_EQ(adc.convert(256, 256), 255u);  // full scale saturates at maxCode
  EXPECT_EQ(adc.convert(128, 256), 128u);  // round(128*255/256) = 128
  EXPECT_EQ(adc.convert(0, 256), 0u);
}

TEST(AdcModel, ProbabilityRoundTrip) {
  AdcModel adc;
  const double p = adc.convertToProbability(64, 256);
  EXPECT_NEAR(p, 0.25, 1.0 / 255.0);
}

TEST(AdcModel, LowResolutionQuantization) {
  AdcParams params;
  params.bits = 4;  // maxCode 15
  AdcModel adc(params);
  EXPECT_EQ(adc.maxCode(), 15u);
  EXPECT_EQ(adc.convert(128, 256), 8u);  // round(0.5 * 15) = 8
}

TEST(AdcModel, NoiseStaysWithinClampAndMovesCodes) {
  AdcParams params;
  params.noiseLsbSigma = 1.0;
  AdcModel adc(params, 77);
  int different = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t code = adc.convert(128, 256);
    EXPECT_LE(code, adc.maxCode());
    if (code != 128u) ++different;
  }
  EXPECT_GT(different, 20);  // noise must actually do something
}

TEST(AdcModel, Validation) {
  AdcModel adc;
  EXPECT_THROW(adc.convert(10, 0), std::invalid_argument);
  EXPECT_THROW(adc.convert(11, 10), std::invalid_argument);
  AdcParams bad;
  bad.bits = 0;
  EXPECT_THROW(AdcModel{bad}, std::invalid_argument);
  bad = AdcParams{};
  bad.noiseLsbSigma = -1;
  EXPECT_THROW(AdcModel{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace aimsc::reram
