/// \file backend_reference.hpp
/// \brief Floating-point reference ScBackend — the Table IV comparison
///        baseline.  Values are exact probabilities; every op computes the
///        ideal result the stochastic designs approximate.
#pragma once

#include <vector>

#include "core/backend.hpp"

namespace aimsc::core {

class ReferenceBackend final : public ScBackend {
 public:
  const char* name() const override { return "Reference"; }

  void encodePixelsInto(std::span<const std::uint8_t> values,
                        std::span<ScValue> out) override;
  void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                  std::span<ScValue> out) override;
  void encodeProbInto(ScValue& dst, double p) override { dst.prob = p; }
  void halfStreamInto(ScValue& dst) override { dst.prob = 0.5; }

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
  void divideInto(ScValue& dst, const ScValue& num, const ScValue& den) override;

  void decodePixelsInto(std::span<ScValue> values,
                        std::span<std::uint8_t> out) override;

 protected:
  void doBernsteinSelectInto(ScValue& dst, std::span<const ScValue> xCopies,
                             std::span<const ScValue> coeffSelects) override;

 private:
  std::vector<double> coeffScratch_;  ///< Bernstein coefficient row
};

}  // namespace aimsc::core
