/// \file backend.hpp
/// \brief Backend-agnostic SC kernel API: the stage-1/2/3 contract every
///        application kernel is written against.
///
/// The paper's pipeline (TRNG -> IMSNG B-to-S -> scouting-logic arithmetic
/// -> ADC S-to-B) is ONE dataflow executed on different substrates.  An
/// `ScBackend` exposes exactly the contract the apps use:
///
///  * stage 1 — batched encode: `encodePixelsInto` opens a fresh randomness
///    epoch (all streams of the batch mutually correlated, the epoch
///    independent of earlier encodes); `encodePixelsCorrelatedInto` joins
///    the current epoch (Sec. II-B correlation control);
///  * stage 2 — the full ImOps vocabulary: multiply / scaledAdd /
///    addApprox / absSub / minimum / maximum / majMux / majMux4 / divide /
///    bernsteinSelect (Qian & Riedel polynomial synthesis);
///  * stage 3 — batched decode, plus the resistance-mode variant CORDIV
///    outputs need (Sec. IV-B);
///  * accounting — ReRAM event counts and a backend-defined op counter.
///
/// Four substrates implement it (see the sibling backend_*.hpp files):
///
///  | DesignKind  | implementation   | value domain           |
///  |-------------|------------------|------------------------|
///  | Reference   | ReferenceBackend | double probability     |
///  | SwScLfsr/   | SwScSimdBackend  | software Bitstream     |
///  |  SwScSobol/ | (the one SW-SC   | (LFSR / Sobol / SFMT   |
///  |  SwScSfmt/  |  engine)         |  SNG family; SwScSimd  |
///  |  SwScSimd   |                  |  is an alias of        |
///  |             |                  |  SwScLfsr)             |
///  | ReramSc     | ReramScBackend   | in-memory Bitstream    |
///  | BinaryCim   | BinaryCimBackend | 8/16-bit integer word  |
///
/// `SwScBackend`, the scalar SW-SC engine, is no factory product: it is
/// the oracle the bulk engine is tested against.
///
/// Writing an app once against this interface replaces the former
/// O(apps x designs) matrix of hand-written variants with O(apps +
/// designs): a new backend instantly runs every app, a new app instantly
/// runs on every backend.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "reliability/fault_plan.hpp"
#include "reram/device.hpp"
#include "reram/events.hpp"
#include "reram/fault_model.hpp"
#include "sc/bitstream.hpp"

/// \namespace aimsc
/// \brief Root namespace of the all-in-memory SC reproduction.

/// \namespace aimsc::core
/// \brief Execution layer: the `ScBackend` contract, its substrates, the
///        backend factory and the tile-parallel engine.
namespace aimsc::core {

/// Execution substrate selector (the paper's Table IV design axis).
enum class DesignKind {
  Reference,  ///< exact floating-point probabilities
  SwScLfsr,   ///< software SC, LFSR SNG
  SwScSobol,  ///< software SC, Sobol SNG
  /// Alias of SwScLfsr: the same backend and the same bytes.  Kept so that
  /// requests and wire frames that name it (value 3) still decode.
  SwScSimd,
  ReramSc,    ///< this work: in-memory SC on ReRAM
  BinaryCim,  ///< binary CIM baseline (MAGIC/AritPIM)
  // Appended after BinaryCim: the wire protocol serializes DesignKind by
  // value, so existing entries must never be renumbered.
  SwScSfmt,   ///< software SC, SIMD-native SFMT SNG family
};

/// Human-readable name of \p design.  It matches the factory-built
/// backend's `name()`, except for the alias `SwScSimd` ("SW-SC (SIMD)"),
/// whose backend reports "SW-SC (LFSR)".
const char* designKindName(DesignKind design);

/// Lowercase-alphanumeric fold shared by the selector parsers
/// (`parseDesignKind`, `apps::parseAppKind`): one definition so the two
/// CLI surfaces cannot drift in what spellings they accept.
std::string normalizeSelector(std::string_view s);

/// Inverse of `designKindName`: parses a design selector from CLI/args.
/// Matching is case-insensitive and ignores punctuation, so "SW-SC (LFSR)",
/// "SwScLfsr" and "swsc-lfsr" all resolve to `DesignKind::SwScLfsr`.
/// Throws std::invalid_argument (listing the valid names) on no match.
DesignKind parseDesignKind(std::string_view name);

/// Opaque per-element value flowing through a backend's pipeline.  Exactly
/// one member is live, fixed by the backend that produced the value:
/// stream backends (ReRAM-SC, SW-SC) use `stream`, the floating-point
/// reference uses `prob`, the binary CIM baseline uses `word`.  Values are
/// only meaningful to the backend that created them and must not cross
/// backends.
struct ScValue {
  sc::Bitstream stream;    ///< stream substrates (ReRAM-SC, SW-SC)
  double prob = 0.0;       ///< floating-point reference
  std::uint32_t word = 0;  ///< binary CIM integer domain
};

/// Borrows the stream payloads of a value batch into \p ptrs (stream
/// substrates' view of a `ScValue` span, staged through reused scratch so
/// per-pixel networks do not churn; the values must outlive the pointers).
inline std::span<const sc::Bitstream* const> borrowStreams(
    std::span<const ScValue> values, std::vector<const sc::Bitstream*>& ptrs) {
  ptrs.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) ptrs[i] = &values[i].stream;
  return ptrs;
}

/// Abstract execution engine for the three-stage SC dataflow.  Backends are
/// stateful (randomness epochs, event ledgers) and not thread-safe; the
/// tile executor gives each lane its own instance.
///
/// A substrate implements ONE surface: the destination-passing `*Into`
/// forms (pure virtual below).  Destinations are resized in place (buffers
/// reused), which is what makes a warm `StreamArena` row loop run without
/// heap traffic.  Stage-2 destinations MAY alias their operands (morphology
/// folds in place); `divideInto` and `bernsteinSelectInto` are the
/// exceptions — their serial recurrence / selection network reads inputs
/// after output positions are written.
///
/// The allocating forms (`encodePixels`, `multiply`, `decodePixels`, ...)
/// are base-class wrappers that size a destination and call the matching
/// `*Into` form, so the two can never disagree in bits, randomness-epoch
/// advance or cost/event accounting.  They stay virtual only so forwarding
/// decorators can intercept them; substrates do not override them.
class ScBackend {
 public:
  virtual ~ScBackend() = default;

  /// Human-readable substrate name (matches `designKindName` for
  /// factory-built backends, `SwScSimd` aside).
  virtual const char* name() const = 0;

  // --- stage 1: binary -> backend domain ----------------------------------

  /// Opens a fresh randomness epoch and encodes the whole batch against it,
  /// stream i into `out[i]`: streams within the batch are mutually
  /// correlated, the epoch is independent of any earlier encode.  Requires
  /// `out.size() == values.size()` (throws std::invalid_argument).
  virtual void encodePixelsInto(std::span<const std::uint8_t> values,
                                std::span<ScValue> out) = 0;

  /// Encodes the batch against the CURRENT epoch: maximally correlated with
  /// the previous encode* call (operand families for XOR / CORDIV).
  virtual void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                          std::span<ScValue> out) = 0;

  /// Encodes an arbitrary constant probability (coefficients, selects),
  /// independent of every data batch.  Repeated calls within one epoch
  /// return mutually independent streams.  Constants never join the
  /// current data epoch; the SW-SC backends serve them from a cached pool
  /// without advancing the epoch counter (the ReRAM substrate still draws
  /// fresh TRNG planes per constant).
  virtual void encodeProbInto(ScValue& dst, double p) = 0;

  /// Independent P=0.5 select stream for MAJ/MUX scaled addition
  /// (equivalent to `encodeProbInto(dst, 0.5)`; same constant-pool
  /// semantics).
  virtual void halfStreamInto(ScValue& dst) = 0;

  /// `out.size()` encodings of the same pixel value, each against its OWN
  /// fresh randomness epoch: the copies are mutually independent and
  /// independent of every earlier encode — the binomial-sampling
  /// precondition of `bernsteinSelect` (each stream position must draw k
  /// independent Bernoulli(x) trials).  Unlike constants the copies DO
  /// advance the epoch counter: after the call the current epoch is the
  /// last copy's epoch (correlated follow-up encodes join it).  The default
  /// issues one single-element `encodePixelsInto` per copy; value-domain
  /// substrates (reference, binary CIM) yield identical exact values.
  virtual void encodeCopiesInto(std::uint8_t v, std::span<ScValue> out);

  // --- stage 2: SC arithmetic (the ImOps vocabulary) ----------------------

  /// Multiplication of independent inputs: p = px * py.
  virtual void multiplyInto(ScValue& dst, const ScValue& x,
                            const ScValue& y) = 0;

  /// Scaled addition p = (px + py) / 2 with select stream \p half.
  virtual void scaledAddInto(ScValue& dst, const ScValue& x, const ScValue& y,
                             const ScValue& half) = 0;

  /// Approximate (unscaled) addition of independent inputs: the OR gate,
  /// p = px + py - px*py — accurate for inputs in [0, 0.5] (Fig. 2 note).
  virtual void addApproxInto(ScValue& dst, const ScValue& x,
                             const ScValue& y) = 0;

  /// Absolute subtraction of correlated inputs: p = |px - py|.
  virtual void absSubInto(ScValue& dst, const ScValue& x,
                          const ScValue& y) = 0;

  /// Minimum of CORRELATED inputs (AND on shared-epoch streams):
  /// p = min(px, py).
  virtual void minimumInto(ScValue& dst, const ScValue& x,
                           const ScValue& y) = 0;

  /// Maximum of CORRELATED inputs (OR on shared-epoch streams):
  /// p = max(px, py).
  virtual void maximumInto(ScValue& dst, const ScValue& x,
                           const ScValue& y) = 0;

  /// 2-to-1 blend, sel favours x: p = psel*px + (1-psel)*py.
  virtual void majMuxInto(ScValue& dst, const ScValue& x, const ScValue& y,
                          const ScValue& sel) = 0;

  /// 4-to-1 blend (bilinear kernel): p = (1-sx)(1-sy) p11 + (1-sx) sy p12 +
  /// sx (1-sy) p21 + sx sy p22.
  virtual void majMux4Into(ScValue& dst, const ScValue& i11, const ScValue& i12,
                           const ScValue& i21, const ScValue& i22,
                           const ScValue& sx, const ScValue& sy) = 0;

  /// Division p = pnum / pden over a correlated pair (pnum <= pden); dst
  /// must not alias an operand.
  virtual void divideInto(ScValue& dst, const ScValue& num,
                          const ScValue& den) = 0;

  /// Bernstein selection network (Qian & Riedel polynomial synthesis; the
  /// gamma kernel's op): selects per stream position among the degree+1
  /// coefficient values by the ones-count of the \p xCopies.  Preconditions
  /// (validated here, once, for every substrate — throws
  /// std::invalid_argument): `xCopies` non-empty and
  /// `coeffSelects.size() == xCopies.size() + 1`.  The x copies must be
  /// mutually independent (use `encodeCopiesInto`) and the coefficient
  /// selects independent of them and of each other (use `encodeProbInto`).
  /// Expected result is the Bernstein form
  /// B_n(x) = sum_k b_k C(n,k) x^k (1-x)^(n-k); dst must not alias an
  /// operand.
  void bernsteinSelectInto(ScValue& dst, std::span<const ScValue> xCopies,
                           std::span<const ScValue> coeffSelects);

  // --- stage 3: backend domain -> binary ----------------------------------

  /// Batched pixel decode (ADC / counter / rounding, per backend) into
  /// \p out (`out.size() == values.size()`).  BORROWS the values: arena
  /// slots outlive the call and are reused next row.
  virtual void decodePixelsInto(std::span<ScValue> values,
                                std::span<std::uint8_t> out) = 0;

  /// Resistance-mode decode for CORDIV outputs; defaults to
  /// `decodePixelsInto`.
  virtual void decodePixelsStoredInto(std::span<ScValue> values,
                                      std::span<std::uint8_t> out);

  // --- allocating wrappers (tests, oracles, one-off calls) ----------------
  //
  // Each sizes its destination and calls the matching *Into form above.

  /// Returns `encodePixelsInto(values, ...)` as a fresh batch.
  virtual std::vector<ScValue> encodePixels(
      std::span<const std::uint8_t> values);
  /// Returns `encodePixelsCorrelatedInto(values, ...)` as a fresh batch.
  virtual std::vector<ScValue> encodePixelsCorrelated(
      std::span<const std::uint8_t> values);
  /// Returns `encodeProbInto(..., p)`.
  virtual ScValue encodeProb(double p);
  /// Returns `halfStreamInto(...)`.
  virtual ScValue halfStream();
  /// One pixel against a fresh epoch (a single-element `encodePixelsInto`).
  virtual ScValue encodePixel(std::uint8_t v);
  /// One pixel against the current epoch.
  virtual ScValue encodePixelCorrelated(std::uint8_t v);
  /// Returns \p k independent copies (`encodeCopiesInto`).
  virtual std::vector<ScValue> encodeCopies(std::uint8_t v, std::size_t k);

  /// Returns `multiplyInto(..., x, y)`.
  virtual ScValue multiply(const ScValue& x, const ScValue& y);
  /// Returns `scaledAddInto(..., x, y, half)`.
  virtual ScValue scaledAdd(const ScValue& x, const ScValue& y,
                            const ScValue& half);
  /// Returns `addApproxInto(..., x, y)`.
  virtual ScValue addApprox(const ScValue& x, const ScValue& y);
  /// Returns `absSubInto(..., x, y)`.
  virtual ScValue absSub(const ScValue& x, const ScValue& y);
  /// Returns `minimumInto(..., x, y)`.
  virtual ScValue minimum(const ScValue& x, const ScValue& y);
  /// Returns `maximumInto(..., x, y)`.
  virtual ScValue maximum(const ScValue& x, const ScValue& y);
  /// Returns `majMuxInto(..., x, y, sel)`.
  virtual ScValue majMux(const ScValue& x, const ScValue& y,
                         const ScValue& sel);
  /// Returns `majMux4Into(..., i11, i12, i21, i22, sx, sy)`.
  virtual ScValue majMux4(const ScValue& i11, const ScValue& i12,
                          const ScValue& i21, const ScValue& i22,
                          const ScValue& sx, const ScValue& sy);
  /// Returns `divideInto(..., num, den)`.
  virtual ScValue divide(const ScValue& num, const ScValue& den);
  /// Returns `bernsteinSelectInto(..., xCopies, coeffSelects)` (same
  /// precondition validation).
  ScValue bernsteinSelect(std::span<const ScValue> xCopies,
                          std::span<const ScValue> coeffSelects);

  /// Returns `decodePixelsInto(values, ...)` as a fresh byte vector.
  virtual std::vector<std::uint8_t> decodePixels(std::span<ScValue> values);
  /// Returns `decodePixelsStoredInto(values, ...)` as a fresh byte vector.
  virtual std::vector<std::uint8_t> decodePixelsStored(
      std::span<ScValue> values);
  /// Single-value convenience over `decodePixels`.
  std::uint8_t decodePixel(ScValue v);
  /// Single-value convenience over `decodePixelsStored`.
  std::uint8_t decodePixelStored(ScValue v);

  // --- accounting ----------------------------------------------------------

  /// ReRAM event ledger (zero for substrates without one).
  virtual reram::EventCounts events() const { return reram::EventCounts{}; }
  /// Clears the event ledger (no-op for substrates without one).
  virtual void resetEvents() {}

  /// Backend-defined cost counter: MAGIC gate cycles for binary CIM, serial
  /// SC op passes for SW-SC, 0 where the event ledger is the cost source.
  virtual std::uint64_t opCount() const { return 0; }

 protected:
  /// Throws std::invalid_argument ("<who>: destination size mismatch")
  /// unless a batch and its destination have the same length.
  static void requireSameSize(std::size_t values, std::size_t out,
                              const char* who);

  /// Substrate realisation of `bernsteinSelectInto`; inputs are
  /// pre-validated by the public wrapper, so implementations may index
  /// freely.
  virtual void doBernsteinSelectInto(ScValue& dst,
                                     std::span<const ScValue> xCopies,
                                     std::span<const ScValue> coeffSelects) = 0;

  /// Allocating twin of `doBernsteinSelectInto` behind `bernsteinSelect`
  /// (a wrapper like the public allocating forms).
  virtual ScValue doBernsteinSelect(std::span<const ScValue> xCopies,
                                    std::span<const ScValue> coeffSelects);
};

/// Gate-level temporal-redundancy knob for the binary CIM substrate
/// (mirrors `bincim::MagicEngine::Protection`; an own enum keeps this
/// header free of bincim includes).
enum class CimProtection { None, Dmr, Tmr };

/// Supplier of misdecision tables for substrates that would otherwise build
/// their own (ReRAM-SC mats, binary-CIM gate engines): called with exactly
/// the (device, seed, samples) triple the substrate's own `FaultModel`
/// constructor would receive.  A FaultModel's entries are a pure function
/// of that triple, so a provider that memoizes models by it
/// (service::FaultModelCache) is bit-identical to per-substrate
/// construction — it only skips repeating the Monte-Carlo.
using FaultModelProvider =
    std::function<std::shared_ptr<const reram::FaultModel>(
        const reram::DeviceParams& device, std::uint64_t seed,
        std::size_t samples)>;

/// Knobs for the backend factory; a RunConfig-independent superset so the
/// factory serves the runner, benches and tests alike.
struct BackendFactoryConfig {
  std::size_t streamLength = 256;  ///< N (stream backends)
  std::uint64_t seed = 0x5eed;     ///< master randomness seed

  /// The unified fault contract (docs/RELIABILITY.md): device variability
  /// feeds the substrate's native fault models, the stream/word-level
  /// classes are injected by wrapping the backend in a
  /// `reliability::FaultedBackend`.  Device-variability-only runs are
  /// `FaultPlan::deviceOnly(device, samples)`.
  reliability::FaultPlan faults{};

  /// Gate-level retry-and-vote for the binary CIM MAGIC ledger.
  CimProtection bincimProtection = CimProtection::None;

  /// Optional memoizing source of the device-variability tables of ReRAM-SC
  /// mats and binary-CIM engines; empty = each builds its own.  Bytes are
  /// the same either way.  Called while the backend is built; the backend
  /// keeps the returned model alive.
  FaultModelProvider faultModelProvider;

  /// Wear-leveling window (rows) for the ReRAM-SC TRNG plane region; 0 =
  /// fixed plane rows (see `AcceleratorConfig::wearWindowRows`).  Rotation
  /// moves which rows hold the planes, never a stream bit.
  std::size_t wearWindowRows = 0;
};

/// Creates an owning backend for \p design.
std::unique_ptr<ScBackend> makeBackend(DesignKind design,
                                       const BackendFactoryConfig& config);

/// Creates \p lanes independently seeded backends of \p design for a
/// `TileExecutor` lane fleet: lane i takes the seed `config.seed +
/// 0x9e3779b97f4a7c15 * (i + 1)` (golden-ratio stride — identical seeds
/// would correlate lanes).  Stream-level faults wrap each lane keyed
/// (lane seed, 0), except ReRAM-SC lanes, which key them (fleet seed, lane
/// index).  With the lane-pinned tile schedule this makes ANY design's
/// tiled run bit-identical for every worker-thread count.
std::vector<std::unique_ptr<ScBackend>> makeBackendLanes(
    DesignKind design, const BackendFactoryConfig& config, std::size_t lanes);

}  // namespace aimsc::core
