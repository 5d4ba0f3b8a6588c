/// \file binomial.hpp
/// \brief Binomial(t, p) draws that consume exactly the generator outputs
///        `std::binomial_distribution<std::size_t>` consumes.
///
/// Probabilistic scouting draws one binomial per pattern class per sensing
/// step, almost always with t·p < 8.  libstdc++ serves that case with
/// Devroye's waiting-time method (*Non-Uniform Random Variate Generation*,
/// 1986, ch. X.4): sum Exp(1)/(t - x) over successive x until the sum
/// exceeds q = -log(1 - p), where p is mirrored to min(p, 1 - p).  Building
/// a `std::binomial_distribution` per draw recomputes q (one log), and its
/// t·p >= 8 set-up (several lgamma/exp/sqrt) whenever t·p crosses 8.
/// `drawBinomial` takes q from the caller's frozen table and runs an inline
/// copy of that branch; at t·p >= 8 it still builds a fresh
/// `std::binomial_distribution`, as the scouting engine always did.  Counts
/// and the generator's position afterwards are those of libstdc++'s draw
/// (tests/test_binomial.cpp), which the golden bytes were recorded with.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <random>

namespace aimsc::reram {

/// The waiting-time threshold q = -log(1 - min(p, 1 - p)).
inline double binomialWaitingQ(double p) {
  return -std::log(1.0 - (p <= 0.5 ? p : 1.0 - p));
}

/// Devroye's waiting-time count for t trials below threshold \p q, draw
/// for draw libstdc++'s `binomial_distribution::_M_waiting`.
inline std::size_t waitingTimeCount(std::mt19937_64& eng, std::size_t t,
                                    double q) {
  std::size_t x = 0;
  double sum = 0.0;
  do {
    if (t == x) return x;
    const double u =
        std::generate_canonical<double, std::numeric_limits<double>::digits>(
            eng);
    sum += -std::log(1.0 - u) / static_cast<double>(t - x);
    ++x;
  } while (sum <= q);
  return x - 1;
}

/// Binomial(\p t, \p p) from \p eng; \p q must be `binomialWaitingQ(p)`.
inline std::size_t drawBinomial(std::mt19937_64& eng, std::size_t t,
                                double p, double q) {
  const double p12 = p <= 0.5 ? p : 1.0 - p;
  if (static_cast<double>(t) * p12 < 8) {
    const std::size_t count = waitingTimeCount(eng, t, q);
    return p12 != p ? t - count : count;
  }
  std::binomial_distribution<std::size_t> binom(t, p);
  return binom(eng);
}

}  // namespace aimsc::reram
