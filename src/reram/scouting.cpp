#include "reram/scouting.hpp"

#include <array>
#include <bit>
#include <stdexcept>

#include "reram/binomial.hpp"

namespace aimsc::reram {

namespace {

constexpr std::size_t kOps = static_cast<std::size_t>(SlOp::Not) + 1;

/// Toggles, in \p out, the columns of \p mask whose rank among the mask's
/// set bits is set in \p picked, and clears \p picked.  Ranks ascend, so
/// one pass over the mask words serves every pick.
AIMSC_POPCNT_CLONES void flipRankedColumns(std::uint64_t* out,
                                           const std::uint64_t* mask,
                                           std::uint64_t* picked,
                                           std::size_t pickedWords) {
  std::size_t w = 0;
  std::size_t seen = 0;  // set mask bits before word w
  std::size_t inWord = static_cast<std::size_t>(std::popcount(mask[0]));
  for (std::size_t pw = 0; pw < pickedWords; ++pw) {
    for (std::uint64_t bits = picked[pw]; bits != 0; bits &= bits - 1) {
      const std::size_t nth =
          pw * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      while (seen + inWord <= nth) {
        seen += inWord;
        inWord = static_cast<std::size_t>(std::popcount(mask[++w]));
      }
      std::uint64_t word = mask[w];
      for (std::size_t r = nth - seen; r > 0; --r) word &= word - 1;
      out[w] ^= word & (~word + 1);  // the rank's column
    }
    picked[pw] = 0;
  }
}

}  // namespace

/// Pattern masks: maskScratch_[k] gets a 1 in column c iff exactly k of the
/// operands have a 1 there.  1..3 operands run word-level into the reused
/// scratch buffers (no allocation once warm).
void ScoutingLogic::patternMasksInto(Operands ops) {
  using sc::Bitstream;
  const std::size_t n = ops.front()->size();
  if (maskScratch_.size() < ops.size() + 1) maskScratch_.resize(ops.size() + 1);
  switch (ops.size()) {
    case 1: {
      const Bitstream& a = *ops[0];
      Bitstream::notInto(maskScratch_[0], a);
      maskScratch_[1] = a;
      return;
    }
    case 2: {
      const Bitstream& a = *ops[0];
      const Bitstream& b = *ops[1];
      Bitstream::orInto(tmpA_, a, b);
      Bitstream::notInto(maskScratch_[0], tmpA_);
      Bitstream::xorInto(maskScratch_[1], a, b);
      Bitstream::andInto(maskScratch_[2], a, b);
      return;
    }
    case 3: {
      const Bitstream& a = *ops[0];
      const Bitstream& b = *ops[1];
      const Bitstream& c = *ops[2];
      Bitstream::andInto(tmpA_, a, b);
      Bitstream::andInto(tmpA_, tmpA_, c);        // all
      Bitstream::majorityInto(tmpB_, a, b, c);    // maj
      Bitstream::orInto(tmpC_, a, b);
      Bitstream::orInto(tmpC_, tmpC_, c);         // any
      Bitstream::notInto(maskScratch_[0], tmpC_);
      Bitstream::notInto(maskScratch_[1], tmpB_);
      Bitstream::andInto(maskScratch_[1], tmpC_, maskScratch_[1]);  // any & ~maj
      Bitstream::notInto(maskScratch_[2], tmpA_);
      Bitstream::andInto(maskScratch_[2], tmpB_, maskScratch_[2]);  // maj & ~all
      maskScratch_[3] = tmpA_;
      return;
    }
    default: {
      // Generic (rare) path: count per column.
      for (std::size_t k = 0; k <= ops.size(); ++k) {
        maskScratch_[k].assign(n, false);
      }
      for (std::size_t col = 0; col < n; ++col) {
        int ones = 0;
        for (const auto* o : ops) ones += o->get(col) ? 1 : 0;
        maskScratch_[static_cast<std::size_t>(ones)].set(col, true);
      }
      return;
    }
  }
}

ScoutingLogic::ScoutingLogic(CrossbarArray& array, Fidelity fidelity,
                             const FaultModel* faultModel, std::uint64_t seed,
                             int votes)
    : array_(array),
      fidelity_(fidelity),
      faultModel_(faultModel),
      senseAmp_(array.params()),
      eng_(seed),
      votes_(votes) {
  if (fidelity_ == Fidelity::Probabilistic) {
    if (faultModel_ == nullptr) {
      throw std::invalid_argument(
          "ScoutingLogic: Probabilistic mode needs a FaultModel");
    }
    flipTable_.resize(kOps * 4 * 4);
  }
  if (votes_ < 1 || votes_ % 2 == 0 || votes_ > 7) {
    throw std::invalid_argument("ScoutingLogic: votes must be odd, 1..7");
  }
}

void ScoutingLogic::op2Into(SlOp op, sc::Bitstream& dst, const sc::Bitstream& a,
                            const sc::Bitstream& b) {
  const std::array<const sc::Bitstream*, 2> ops{&a, &b};
  executeInto(op, ops, dst);
}

void ScoutingLogic::op3Into(SlOp op, sc::Bitstream& dst, const sc::Bitstream& a,
                            const sc::Bitstream& b, const sc::Bitstream& c) {
  const std::array<const sc::Bitstream*, 3> ops{&a, &b, &c};
  executeInto(op, ops, dst);
}

void ScoutingLogic::opInto(SlOp op, sc::Bitstream& dst, Operands operands) {
  executeInto(op, operands, dst);
}

void ScoutingLogic::executeInto(SlOp op, Operands operands, sc::Bitstream& dst) {
  if (operands.empty()) throw std::invalid_argument("ScoutingLogic: no operands");
  const std::size_t width = operands.front()->size();
  for (const auto* o : operands) {
    if (o->size() != width) {
      throw std::invalid_argument("ScoutingLogic: operand width mismatch");
    }
  }
  const int numRows = static_cast<int>(operands.size());
  if (op == SlOp::Maj3 && numRows != 3) {
    throw std::invalid_argument("ScoutingLogic: MAJ3 needs three operands");
  }
  if ((op == SlOp::Xor || op == SlOp::Xnor) && numRows != 2) {
    throw std::invalid_argument("ScoutingLogic: XOR/XNOR are two-operand ops");
  }
  if (op == SlOp::Not && numRows != 1) {
    throw std::invalid_argument("ScoutingLogic: NOT is single-operand");
  }

  // `votes_` sensing steps (1 = plain).  The in-step SA latch is part of
  // t_slRead (the IMSNG calibration 78.2 ns = 40 * t_slRead absorbs it);
  // standalone output captures are charged by the caller (ImOps).
  array_.events().add(reram::EventKind::SlRead,
                      static_cast<std::uint64_t>(votes_));

  if (fidelity_ == Fidelity::Ideal && votes_ == 1) {
    // Fault-free single-sense fast path: the per-pattern masks exist only
    // to localize misdecisions, and ORing the slIdeal-true masks equals the
    // plain word-level gate — compute it directly (identical bits, one pass
    // instead of the mask build).
    senseIdealInto(dst, op, operands);
    return;
  }

  if (fidelity_ != Fidelity::MonteCarlo) patternMasksInto(operands);
  const std::vector<sc::Bitstream>& masks = maskScratch_;

  if (votes_ == 1 || fidelity_ == Fidelity::Ideal) {
    senseOnceInto(dst, op, operands, masks, numRows, width);
    return;
  }

  // Temporal redundancy: vote per column over `votes_` independent senses,
  // staged through one outcome stream per vote, then voted into dst.
  std::vector<sc::Bitstream>& outcomes = voteScratch_;
  outcomes.resize(static_cast<std::size_t>(votes_));
  for (sc::Bitstream& o : outcomes) {
    senseOnceInto(o, op, operands, masks, numRows, width);
  }
  if (votes_ == 3) {
    sc::Bitstream::majorityInto(dst, outcomes[0], outcomes[1], outcomes[2]);
    return;
  }
  dst.assign(width, false);
  for (std::size_t c = 0; c < width; ++c) {
    int ones = 0;
    for (const auto& o : outcomes) ones += o.get(c) ? 1 : 0;
    if (2 * ones > votes_) dst.set(c, true);
  }
}

void ScoutingLogic::senseIdealInto(sc::Bitstream& dst, SlOp op,
                                   Operands operands) {
  using sc::Bitstream;
  switch (op) {
    case SlOp::And:
    case SlOp::Nand:
      Bitstream::andInto(dst, *operands[0],
                         operands.size() > 1 ? *operands[1] : *operands[0]);
      for (std::size_t i = 2; i < operands.size(); ++i) {
        Bitstream::andInto(dst, dst, *operands[i]);
      }
      if (op == SlOp::Nand) Bitstream::notInto(dst, dst);
      return;
    case SlOp::Or:
    case SlOp::Nor:
      Bitstream::orInto(dst, *operands[0],
                        operands.size() > 1 ? *operands[1] : *operands[0]);
      for (std::size_t i = 2; i < operands.size(); ++i) {
        Bitstream::orInto(dst, dst, *operands[i]);
      }
      if (op == SlOp::Nor) Bitstream::notInto(dst, dst);
      return;
    case SlOp::Xor:
      Bitstream::xorInto(dst, *operands[0], *operands[1]);
      return;
    case SlOp::Xnor:
      Bitstream::xorInto(dst, *operands[0], *operands[1]);
      Bitstream::notInto(dst, dst);
      return;
    case SlOp::Maj3:
      Bitstream::majorityInto(dst, *operands[0], *operands[1], *operands[2]);
      return;
    case SlOp::Not:
      Bitstream::notInto(dst, *operands[0]);
      return;
  }
}

void ScoutingLogic::senseOnceInto(
    sc::Bitstream& dst, SlOp op, Operands operands,
    const std::vector<sc::Bitstream>& masks, int numRows, std::size_t width) {
  if (fidelity_ == Fidelity::MonteCarlo) {
    // dst may alias an operand; sample into a scratch stream first.
    tmpA_.assign(width, false);
    auto& dev = array_.device();
    for (std::size_t c = 0; c < width; ++c) {
      double current = 0.0;
      for (const auto* o : operands) current += dev.sampleCurrent(o->get(c));
      if (senseAmp_.decide(op, numRows, current)) tmpA_.set(c, true);
    }
    dst = tmpA_;
    return;
  }

  // Ideal result from per-pattern masks (word-level); the masks were
  // materialized by the caller, so writing dst cannot corrupt an aliased
  // operand.
  sc::Bitstream& out = dst;
  out.assign(width, false);
  for (int ones = 0; ones <= numRows; ++ones) {
    if (slIdeal(op, ones, numRows)) {
      out |= masks[static_cast<std::size_t>(ones)];
    }
  }
  if (fidelity_ == Fidelity::Ideal) return;

  // Probabilistic mode: per pattern class, flip a Binomial(count, p) number
  // of uniformly chosen columns.  Equivalent in distribution to per-column
  // Bernoulli flips but O(words + flips) instead of O(columns).
  for (int ones = 0; ones <= numRows; ++ones) {
    const sc::Bitstream& mask = masks[static_cast<std::size_t>(ones)];
    const std::size_t cnt = mask.popcount();
    if (cnt == 0) continue;
    const FlipProb f = flipProb(op, ones, numRows);
    if (f.p <= 0.0) continue;
    const std::size_t flips = drawBinomial(eng_, cnt, f.p, f.q);
    if (flips == 0) continue;
    flipColumns(out, mask, cnt, flips);
  }
}

ScoutingLogic::FlipProb ScoutingLogic::flipProb(SlOp op, int ones, int rows) {
  if (rows > 3) {
    const double p = faultModel_->misdecisionProb(op, ones, rows);
    return {p, binomialWaitingQ(p)};
  }
  FlipProb& f = flipTable_[(static_cast<std::size_t>(op) * 4 +
                            static_cast<std::size_t>(rows)) * 4 +
                           static_cast<std::size_t>(ones)];
  if (f.p < 0.0) {
    const double p = faultModel_->misdecisionProb(op, ones, rows);
    f = {p, binomialWaitingQ(p)};
  }
  return f;
}

void ScoutingLogic::flipColumns(sc::Bitstream& out, const sc::Bitstream& mask,
                                std::size_t cnt, std::size_t flips) {
  // Distinct ranks in [0, cnt); a rank picked already is drawn again (the
  // draw order of docs/ARCHITECTURE.md §4.2).
  const std::size_t words = (cnt + 63) / 64;
  if (picked_.size() < words) picked_.resize(mask.words().size());
  std::uniform_int_distribution<std::size_t> pick(0, cnt - 1);
  for (std::size_t chosen = 0; chosen < flips;) {
    const std::size_t nth = pick(eng_);
    const std::uint64_t bit = std::uint64_t{1} << (nth % 64);
    std::uint64_t& word = picked_[nth / 64];
    if ((word & bit) != 0) continue;
    word |= bit;
    ++chosen;
  }
  flipRankedColumns(out.mutableWords().data(), mask.words().data(),
                    picked_.data(), words);
}

}  // namespace aimsc::reram
