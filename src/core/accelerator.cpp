#include "core/accelerator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sc/sng.hpp"

namespace aimsc::core {

namespace {
constexpr std::size_t kOutputRowOffset = 0;  ///< SBS row
constexpr std::size_t kPlaneBaseOffset = 1;  ///< first random plane
}  // namespace

Accelerator::Accelerator(const AcceleratorConfig& config) : config_(config) {
  if (config_.streamLength == 0) {
    throw std::invalid_argument("Accelerator: zero stream length");
  }
  const auto m = static_cast<std::size_t>(config_.mBits);
  // Geometry: output row, the plane region (M rows, or the wear-rotation
  // window when one is configured), plus spare operand rows.
  const std::size_t planeRegion = std::max(m, config_.wearWindowRows);
  const std::size_t rows = kPlaneBaseOffset + planeRegion + 8;
  array_ = std::make_unique<reram::CrossbarArray>(
      rows, config_.streamLength, config_.device, config_.seed);

  if (config_.deviceVariability) {
    faultModel_ =
        config_.faultModelProvider
            ? config_.faultModelProvider(config_.device, config_.seed ^ 0xf417,
                                         config_.faultModelSamples)
            : std::make_shared<const reram::FaultModel>(
                  config_.device, config_.seed ^ 0xf417,
                  config_.faultModelSamples);
    scouting_ = std::make_unique<reram::ScoutingLogic>(
        *array_, reram::ScoutingLogic::Fidelity::Probabilistic,
        faultModel_.get(), config_.seed ^ 0x5c);
  } else {
    scouting_ = std::make_unique<reram::ScoutingLogic>(
        *array_, reram::ScoutingLogic::Fidelity::Ideal, nullptr,
        config_.seed ^ 0x5c);
  }

  periphery_ = std::make_unique<reram::Periphery>(*array_);
  trng_ = std::make_unique<reram::ReramTrng>(config_.seed ^ 0x7124,
                                             config_.trngBias);

  ImsngConfig ic;
  ic.mBits = config_.mBits;
  ic.variant = config_.imsngVariant;
  ic.randomPlaneBase = kPlaneBaseOffset;
  ic.outputRow = kOutputRowOffset;
  ic.commitResult = config_.commitSbs;
  ic.wearWindowRows = config_.wearWindowRows;
  imsng_ = std::make_unique<Imsng>(*array_, *scouting_, *periphery_, *trng_, ic);

  imops_ = std::make_unique<ImOps>(*scouting_);
  ims2b_ = std::make_unique<ImS2B>(*array_);
}

void Accelerator::encodeProbInto(sc::Bitstream& dst, double p) {
  imsng_->refreshRandomness();
  encodeProbCorrelatedInto(dst, p);
}

void Accelerator::encodeProbCorrelatedInto(sc::Bitstream& dst, double p) {
  imsng_->generateThresholdInto(sc::quantizeProbability(p, config_.mBits),
                                dst);
}

void Accelerator::encodePixelsInto(std::span<const std::uint8_t> values,
                                   std::span<sc::Bitstream* const> outs) {
  imsng_->refreshRandomness();
  imsng_->encodePixelBatchInto(values, outs);
}

void Accelerator::encodePixelsCorrelatedInto(
    std::span<const std::uint8_t> values,
    std::span<sc::Bitstream* const> outs) {
  imsng_->encodePixelBatchInto(values, outs);
}

void Accelerator::refreshRandomness() { imsng_->refreshRandomness(); }

double Accelerator::decodeProb(const sc::Bitstream& s) {
  return ims2b_->toProbability(ims2b_->convert(s));
}

std::uint8_t Accelerator::decodePixel(const sc::Bitstream& s) {
  return ims2b_->toPixel(ims2b_->convert(s));
}

std::uint8_t Accelerator::decodePixelStored(const sc::Bitstream& s) {
  return ims2b_->toPixel(ims2b_->convertStored(s));
}

}  // namespace aimsc::core
