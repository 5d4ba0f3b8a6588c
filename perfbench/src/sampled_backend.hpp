// A forwarding ScBackend decorator that attributes a lane's time to the
// three SC pipeline stages (encode / ops / decode).  Single ops take ~100 ns,
// so timing every call would distort the lane; the decorator counts every
// call but reads the clock on a pseudo-random one in `every` (kernels call
// stages in fixed periodic patterns, so a fixed stride would alias onto one
// call kind), subtracts the clock's own cost, and scales the sampled time
// up by calls / sampled.  Bits are untouched: every call is forwarded
// verbatim to the wrapped backend, which keeps its own randomness and
// ledgers.
#pragma once

#include <array>
#include <cstdint>

#include "core/backend.hpp"
#include "ledger.hpp"

namespace perfbench {

enum class Stage : std::uint8_t { Encode = 0, Ops = 1, Decode = 2 };

struct StageTally {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  double sampledNs = 0;
};

/// Time estimate from a sample: \p sampledNs measured over \p sampled of
/// \p calls calls (0 when nothing was sampled).
double scaledEstimate(double sampledNs, std::uint64_t calls,
                      std::uint64_t sampled);

struct StageTimes {
  std::array<StageTally, 3> stage{};

  StageTally& operator[](Stage s) { return stage[static_cast<int>(s)]; }
  const StageTally& operator[](Stage s) const {
    return stage[static_cast<int>(s)];
  }
  double estimatedNs(Stage s) const;
  StageTimes& operator+=(const StageTimes& o);
};

class SampledBackend final : public aimsc::core::ScBackend {
 public:
  /// Wraps \p inner (not owned; must outlive this decorator).  \p every >= 1
  /// is the sampling period per stage.
  SampledBackend(aimsc::core::ScBackend& inner, std::uint32_t every);

  const StageTimes& times() const { return times_; }

  const char* name() const override { return inner_.name(); }

  using ScValue = aimsc::core::ScValue;
  using Bytes = std::span<const std::uint8_t>;

  std::vector<ScValue> encodePixels(Bytes values) override;
  std::vector<ScValue> encodePixelsCorrelated(Bytes values) override;
  ScValue encodeProb(double p) override;
  ScValue halfStream() override;
  ScValue encodePixel(std::uint8_t v) override;
  ScValue encodePixelCorrelated(std::uint8_t v) override;
  std::vector<ScValue> encodeCopies(std::uint8_t v, std::size_t k) override;

  ScValue multiply(const ScValue& x, const ScValue& y) override;
  ScValue scaledAdd(const ScValue& x, const ScValue& y,
                    const ScValue& half) override;
  ScValue addApprox(const ScValue& x, const ScValue& y) override;
  ScValue absSub(const ScValue& x, const ScValue& y) override;
  ScValue minimum(const ScValue& x, const ScValue& y) override;
  ScValue maximum(const ScValue& x, const ScValue& y) override;
  ScValue majMux(const ScValue& x, const ScValue& y,
                 const ScValue& sel) override;
  ScValue majMux4(const ScValue& i11, const ScValue& i12, const ScValue& i21,
                  const ScValue& i22, const ScValue& sx,
                  const ScValue& sy) override;
  ScValue divide(const ScValue& num, const ScValue& den) override;

  std::vector<std::uint8_t> decodePixels(std::span<ScValue> values) override;
  std::vector<std::uint8_t> decodePixelsStored(
      std::span<ScValue> values) override;

  void encodePixelsInto(Bytes values, std::span<ScValue> out) override;
  void encodePixelsCorrelatedInto(Bytes values,
                                  std::span<ScValue> out) override;
  void encodeProbInto(ScValue& dst, double p) override;
  void halfStreamInto(ScValue& dst) override;
  void encodeCopiesInto(std::uint8_t v, std::span<ScValue> out) override;

  void multiplyInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void scaledAddInto(ScValue& dst, const ScValue& x, const ScValue& y,
                     const ScValue& half) override;
  void addApproxInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void absSubInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void minimumInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void maximumInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void majMuxInto(ScValue& dst, const ScValue& x, const ScValue& y,
                  const ScValue& sel) override;
  void majMux4Into(ScValue& dst, const ScValue& i11, const ScValue& i12,
                   const ScValue& i21, const ScValue& i22, const ScValue& sx,
                   const ScValue& sy) override;
  void divideInto(ScValue& dst, const ScValue& num,
                  const ScValue& den) override;

  void decodePixelsInto(std::span<ScValue> values,
                        std::span<std::uint8_t> out) override;
  void decodePixelsStoredInto(std::span<ScValue> values,
                              std::span<std::uint8_t> out) override;

  aimsc::reram::EventCounts events() const override { return inner_.events(); }
  void resetEvents() override { inner_.resetEvents(); }
  std::uint64_t opCount() const override { return inner_.opCount(); }

 protected:
  ScValue doBernsteinSelect(std::span<const ScValue> xCopies,
                            std::span<const ScValue> coeffSelects) override;
  void doBernsteinSelectInto(ScValue& dst, std::span<const ScValue> xCopies,
                             std::span<const ScValue> coeffSelects) override;

 private:
  /// Counts one call of a stage and, when \p timed, times it.
  class Probe {
   public:
    Probe(StageTally& tally, bool timed);
    ~Probe();
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;

   private:
    StageTally& tally_;
    bool timed_;
    Clock::time_point start_{};
  };

  Probe probe(Stage s) { return Probe(times_[s], nextRandom() % every_ == 0); }

  /// xorshift64: the sampling decision stream (never touches the bits).
  std::uint64_t nextRandom() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  aimsc::core::ScBackend& inner_;
  std::uint32_t every_;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
  StageTimes times_;
};

}  // namespace perfbench
