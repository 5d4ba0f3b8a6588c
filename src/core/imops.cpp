#include "core/imops.hpp"

#include "sc/bernstein.hpp"

#include <array>
#include <stdexcept>

#include "reliability/fault_rng.hpp"

namespace aimsc::core {

using reram::SlOp;

namespace {

/// Separates CORDIV's draw keys from the scouting steps' on the same seed.
constexpr std::uint64_t kCordivDomain = 0xc0d1f00dd1f1de5ull;

}  // namespace

// Each bulk op charges one standalone SA-output latch capture (two for the
// XOR/XNOR window gates, which latch both references [33]); the in-step SA
// activity is already absorbed into the calibrated t_slRead.

void ImOps::multiplyInto(sc::Bitstream& dst, const sc::Bitstream& x,
                         const sc::Bitstream& y) {
  scouting_.array().events().add(reram::EventKind::LatchOp);
  scouting_.op2Into(SlOp::And, dst, x, y);
}

void ImOps::scaledAddInto(sc::Bitstream& dst, const sc::Bitstream& x,
                          const sc::Bitstream& y, const sc::Bitstream& half) {
  scouting_.array().events().add(reram::EventKind::LatchOp);
  scouting_.op3Into(SlOp::Maj3, dst, x, y, half);
}

void ImOps::addApproxInto(sc::Bitstream& dst, const sc::Bitstream& x,
                          const sc::Bitstream& y) {
  scouting_.array().events().add(reram::EventKind::LatchOp);
  scouting_.op2Into(SlOp::Or, dst, x, y);
}

void ImOps::absSubInto(sc::Bitstream& dst, const sc::Bitstream& x,
                       const sc::Bitstream& y) {
  scouting_.array().events().add(reram::EventKind::LatchOp, 2);  // two refs
  scouting_.op2Into(SlOp::Xor, dst, x, y);
}

void ImOps::minimumInto(sc::Bitstream& dst, const sc::Bitstream& x,
                        const sc::Bitstream& y) {
  scouting_.array().events().add(reram::EventKind::LatchOp);
  scouting_.op2Into(SlOp::And, dst, x, y);
}

void ImOps::maximumInto(sc::Bitstream& dst, const sc::Bitstream& x,
                        const sc::Bitstream& y) {
  scouting_.array().events().add(reram::EventKind::LatchOp);
  scouting_.op2Into(SlOp::Or, dst, x, y);
}

void ImOps::divideInto(sc::Bitstream& dst, const sc::Bitstream& x,
                       const sc::Bitstream& y, sc::CordivVariant variant) {
  if (x.size() != y.size()) throw std::invalid_argument("ImOps::divide: length mismatch");
  scouting_.array().events().add(reram::EventKind::CordivIteration, x.size());

  // The mat's frozen 2-row AND probabilities as integer thresholds: a
  // draw key k flips its term when (k >> 11) < faultThreshold(p), i.e. when
  // its uniform is below p (all zero on a fault-free mat, which then draws
  // nothing).
  std::array<std::uint64_t, 3> flipBelow{};
  for (int ones = 0; ones <= 2; ++ones) {
    flipBelow[static_cast<std::size_t>(ones)] = reliability::faultThreshold(
        scouting_.misdecisionProb(SlOp::And, ones, 2));
  }
  // Iteration i's terms draw keys mix64(callKey + 2i) and
  // mix64(callKey + 2i + 1).
  const std::uint64_t callKey = reliability::mix64(
      reliability::mix64(scouting_.seed() ^ kCordivDomain) + divideCalls_++);
  const auto flips = [&](std::uint64_t threshold, std::uint64_t draw) {
    return threshold != 0 &&
           (reliability::mix64(callKey + draw) >> 11) < threshold;
  };
  sc::CordivUnit unit_ff(variant);
  dst.assign(x.size(), false);
  for (std::size_t i = 0; i < x.size(); ++i) {
    bool xb = x.get(i);
    bool yb = y.get(i);
    // Each iteration senses two terms: t = AND(x_i, y_i) and
    // h = AND(d, NOT y_i); model their misdecisions as input-bit flips
    // drawn from the corresponding AND pattern probabilities.
    if (flips(flipBelow[(xb ? 1u : 0u) + (yb ? 1u : 0u)], 2 * i)) xb = !xb;
    if (flips(flipBelow[yb ? 0u : 1u], 2 * i + 1)) yb = !yb;
    if (unit_ff.clock(xb, yb)) dst.set(i, true);
  }
}

void ImOps::majMuxInto(sc::Bitstream& dst, const sc::Bitstream& x,
                       const sc::Bitstream& y, const sc::Bitstream& sel) {
  scouting_.array().events().add(reram::EventKind::LatchOp);
  scouting_.op3Into(SlOp::Maj3, dst, x, y, sel);
}

void ImOps::majMux4Into(sc::Bitstream& dst, const sc::Bitstream& i11,
                        const sc::Bitstream& i12, const sc::Bitstream& i21,
                        const sc::Bitstream& i22, const sc::Bitstream& sx,
                        const sc::Bitstream& sy) {
  scouting_.array().events().add(reram::EventKind::LatchOp, 3);
  scouting_.op3Into(SlOp::Maj3, tmpTop_, i12, i11, sy);
  scouting_.op3Into(SlOp::Maj3, tmpBottom_, i22, i21, sy);
  scouting_.op3Into(SlOp::Maj3, dst, tmpBottom_, tmpTop_, sx);
}

void ImOps::bernsteinSelectInto(sc::Bitstream& dst,
                                std::span<const sc::Bitstream* const> xCopies,
                                std::span<const sc::Bitstream* const> coeffs) {
  // Select first (validates and throws on a malformed call), charge after.
  sc::scBernsteinSelectInto(dst, xCopies, coeffs);
  auto& log = scouting_.array().events();
  const std::uint64_t steps =
      static_cast<std::uint64_t>(xCopies.size() + coeffs.size()) - 1;
  log.add(reram::EventKind::SlRead, steps);
  log.add(reram::EventKind::LatchOp, steps);
}

}  // namespace aimsc::core
