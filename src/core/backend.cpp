#include "core/backend.hpp"

#include <array>
#include <cctype>
#include <stdexcept>
#include <string>

#include "core/backend_bincim.hpp"
#include "core/backend_reference.hpp"
#include "core/backend_reram.hpp"
#include "core/backend_swsc_simd.hpp"
#include "reliability/injector.hpp"

namespace aimsc::core {

const char* designKindName(DesignKind design) {
  switch (design) {
    case DesignKind::Reference: return "Reference";
    case DesignKind::SwScLfsr: return "SW-SC (LFSR)";
    case DesignKind::SwScSobol: return "SW-SC (Sobol)";
    case DesignKind::SwScSimd: return "SW-SC (SIMD)";
    case DesignKind::ReramSc: return "ReRAM-SC";
    case DesignKind::BinaryCim: return "Binary CIM";
    case DesignKind::SwScSfmt: return "SW-SC (SFMT)";
  }
  return "?";
}

std::string normalizeSelector(std::string_view s) {
  // Lowercase alphanumerics only, so the display name "SW-SC (LFSR)", the
  // enum spelling "SwScLfsr" and CLI-friendly "swsc-lfsr" compare equal.
  std::string out;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

DesignKind parseDesignKind(std::string_view name) {
  const std::string wanted = normalizeSelector(name);
  std::string valid;
  for (const DesignKind d :
       {DesignKind::Reference, DesignKind::SwScLfsr, DesignKind::SwScSobol,
        DesignKind::SwScSfmt, DesignKind::SwScSimd, DesignKind::ReramSc,
        DesignKind::BinaryCim}) {
    if (wanted == normalizeSelector(designKindName(d))) return d;
    if (!valid.empty()) valid += ", ";
    valid += designKindName(d);
  }
  throw std::invalid_argument("parseDesignKind: unknown design '" +
                              std::string(name) + "' (valid: " + valid + ")");
}

void ScBackend::requireSameSize(std::size_t values, std::size_t out,
                                const char* who) {
  if (values != out) {
    throw std::invalid_argument(std::string(who) +
                                ": destination size mismatch");
  }
}

namespace {

void checkBernsteinShape(std::span<const ScValue> xCopies,
                         std::span<const ScValue> coeffSelects) {
  // The documented contract, enforced once for every substrate: n x-copies
  // select among n+1 coefficients.  Substrates may then index freely.
  if (xCopies.empty() || coeffSelects.size() != xCopies.size() + 1) {
    throw std::invalid_argument(
        "ScBackend::bernsteinSelect: need n x-copies (n >= 1) and n+1 "
        "coefficient selects");
  }
}

}  // namespace

// --- derived defaults --------------------------------------------------------

void ScBackend::encodeCopiesInto(std::uint8_t v, std::span<ScValue> out) {
  // One fresh epoch per copy: a single-element fresh-epoch batch per slot.
  const std::array<std::uint8_t, 1> one{v};
  for (ScValue& slot : out) {
    encodePixelsInto(one, std::span<ScValue>(&slot, 1));
  }
}

void ScBackend::bernsteinSelectInto(ScValue& dst,
                                    std::span<const ScValue> xCopies,
                                    std::span<const ScValue> coeffSelects) {
  checkBernsteinShape(xCopies, coeffSelects);
  doBernsteinSelectInto(dst, xCopies, coeffSelects);
}

void ScBackend::decodePixelsStoredInto(std::span<ScValue> values,
                                       std::span<std::uint8_t> out) {
  decodePixelsInto(values, out);
}

// --- allocating wrappers: size the destination, call the *Into form --------

std::vector<ScValue> ScBackend::encodePixels(
    std::span<const std::uint8_t> values) {
  std::vector<ScValue> out(values.size());
  encodePixelsInto(values, out);
  return out;
}

std::vector<ScValue> ScBackend::encodePixelsCorrelated(
    std::span<const std::uint8_t> values) {
  std::vector<ScValue> out(values.size());
  encodePixelsCorrelatedInto(values, out);
  return out;
}

ScValue ScBackend::encodeProb(double p) {
  ScValue v;
  encodeProbInto(v, p);
  return v;
}

ScValue ScBackend::halfStream() {
  ScValue v;
  halfStreamInto(v);
  return v;
}

ScValue ScBackend::encodePixel(std::uint8_t v) {
  const std::array<std::uint8_t, 1> one{v};
  ScValue out;
  encodePixelsInto(one, std::span<ScValue>(&out, 1));
  return out;
}

ScValue ScBackend::encodePixelCorrelated(std::uint8_t v) {
  const std::array<std::uint8_t, 1> one{v};
  ScValue out;
  encodePixelsCorrelatedInto(one, std::span<ScValue>(&out, 1));
  return out;
}

std::vector<ScValue> ScBackend::encodeCopies(std::uint8_t v, std::size_t k) {
  std::vector<ScValue> copies(k);
  encodeCopiesInto(v, copies);
  return copies;
}

ScValue ScBackend::multiply(const ScValue& x, const ScValue& y) {
  ScValue v;
  multiplyInto(v, x, y);
  return v;
}

ScValue ScBackend::scaledAdd(const ScValue& x, const ScValue& y,
                             const ScValue& half) {
  ScValue v;
  scaledAddInto(v, x, y, half);
  return v;
}

ScValue ScBackend::addApprox(const ScValue& x, const ScValue& y) {
  ScValue v;
  addApproxInto(v, x, y);
  return v;
}

ScValue ScBackend::absSub(const ScValue& x, const ScValue& y) {
  ScValue v;
  absSubInto(v, x, y);
  return v;
}

ScValue ScBackend::minimum(const ScValue& x, const ScValue& y) {
  ScValue v;
  minimumInto(v, x, y);
  return v;
}

ScValue ScBackend::maximum(const ScValue& x, const ScValue& y) {
  ScValue v;
  maximumInto(v, x, y);
  return v;
}

ScValue ScBackend::majMux(const ScValue& x, const ScValue& y,
                          const ScValue& sel) {
  ScValue v;
  majMuxInto(v, x, y, sel);
  return v;
}

ScValue ScBackend::majMux4(const ScValue& i11, const ScValue& i12,
                           const ScValue& i21, const ScValue& i22,
                           const ScValue& sx, const ScValue& sy) {
  ScValue v;
  majMux4Into(v, i11, i12, i21, i22, sx, sy);
  return v;
}

ScValue ScBackend::divide(const ScValue& num, const ScValue& den) {
  ScValue v;
  divideInto(v, num, den);
  return v;
}

ScValue ScBackend::bernsteinSelect(std::span<const ScValue> xCopies,
                                   std::span<const ScValue> coeffSelects) {
  checkBernsteinShape(xCopies, coeffSelects);
  return doBernsteinSelect(xCopies, coeffSelects);
}

ScValue ScBackend::doBernsteinSelect(std::span<const ScValue> xCopies,
                                     std::span<const ScValue> coeffSelects) {
  ScValue v;
  doBernsteinSelectInto(v, xCopies, coeffSelects);
  return v;
}

std::vector<std::uint8_t> ScBackend::decodePixels(std::span<ScValue> values) {
  std::vector<std::uint8_t> out(values.size());
  decodePixelsInto(values, out);
  return out;
}

std::vector<std::uint8_t> ScBackend::decodePixelsStored(
    std::span<ScValue> values) {
  std::vector<std::uint8_t> out(values.size());
  decodePixelsStoredInto(values, out);
  return out;
}

std::uint8_t ScBackend::decodePixel(ScValue v) {
  return decodePixels(std::span<ScValue>(&v, 1)).front();
}

std::uint8_t ScBackend::decodePixelStored(ScValue v) {
  return decodePixelsStored(std::span<ScValue>(&v, 1)).front();
}

namespace {

bincim::MagicEngine::Protection toEngineProtection(CimProtection p) {
  switch (p) {
    case CimProtection::None: return bincim::MagicEngine::Protection::None;
    case CimProtection::Dmr: return bincim::MagicEngine::Protection::Dmr;
    case CimProtection::Tmr: return bincim::MagicEngine::Protection::Tmr;
  }
  return bincim::MagicEngine::Protection::None;
}

/// Builds the bare substrate; device variability flows into the substrate's
/// native fault model, the stream/word-level classes are added by the
/// `FaultedBackend` wrap in `makeBackend`.
std::unique_ptr<ScBackend> makeInnerBackend(
    DesignKind design, const BackendFactoryConfig& config) {
  const reliability::FaultPlan& plan = config.faults;
  switch (design) {
    case DesignKind::Reference:
      return std::make_unique<ReferenceBackend>();
    case DesignKind::SwScLfsr:
    case DesignKind::SwScSimd:  // an alias of SwScLfsr
    case DesignKind::SwScSobol:
    case DesignKind::SwScSfmt: {
      SwScSimdConfig sw;
      sw.streamLength = config.streamLength;
      sw.sng = design == DesignKind::SwScSobol  ? SwScSng::Sobol
               : design == DesignKind::SwScSfmt ? SwScSng::Sfmt
                                                : SwScSng::Lfsr;
      sw.seed = config.seed;
      return std::make_unique<SwScSimdBackend>(sw);
    }
    case DesignKind::ReramSc: {
      AcceleratorConfig ac;
      ac.streamLength = config.streamLength;
      ac.seed = config.seed;
      ac.deviceVariability = plan.deviceVariability;
      if (plan.deviceVariability) ac.device = plan.device;
      ac.faultModelSamples = plan.faultModelSamples;
      ac.faultModelProvider = config.faultModelProvider;
      ac.wearWindowRows = config.wearWindowRows;
      return std::make_unique<ReramScBackend>(ac);
    }
    case DesignKind::BinaryCim: {
      BinaryCimConfig bc;
      bc.seed = config.seed;
      bc.deviceVariability = plan.deviceVariability;
      bc.device = plan.device;
      bc.faultModelSamples = plan.faultModelSamples;
      bc.protection = toEngineProtection(config.bincimProtection);
      bc.faultModelProvider = config.faultModelProvider;
      return std::make_unique<BinaryCimBackend>(bc);
    }
  }
  throw std::invalid_argument("makeBackend: bad design kind");
}

}  // namespace

std::unique_ptr<ScBackend> makeBackend(DesignKind design,
                                       const BackendFactoryConfig& config) {
  return reliability::wrapWithFaults(makeInnerBackend(design, config), design,
                                     config.faults, config.seed);
}

std::vector<std::unique_ptr<ScBackend>> makeBackendLanes(
    DesignKind design, const BackendFactoryConfig& config, std::size_t lanes) {
  std::vector<std::unique_ptr<ScBackend>> fleet;
  fleet.reserve(lanes);
  // ReRAM-SC lanes key their stream-level faults by (fleet seed, lane
  // index), every other design by (lane seed, 0); the golden bytes pin both.
  const bool fleetKeyed = design == DesignKind::ReramSc;
  for (std::size_t i = 0; i < lanes; ++i) {
    BackendFactoryConfig laneCfg = config;
    // Distinct randomness per lane; identical seeds would correlate lanes.
    laneCfg.seed = config.seed + 0x9e3779b97f4a7c15ull * (i + 1);
    fleet.push_back(reliability::wrapWithFaults(
        makeInnerBackend(design, laneCfg), design, config.faults,
        fleetKeyed ? config.seed : laneCfg.seed, fleetKeyed ? i : 0));
  }
  return fleet;
}

}  // namespace aimsc::core
