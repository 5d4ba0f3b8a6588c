#include "reram/scouting.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "reliability/fault_rng.hpp"
#include "sc/select.hpp"

namespace aimsc::reram {

namespace {

constexpr std::size_t kOps = static_cast<std::size_t>(SlOp::Not) + 1;
/// Most rows one sensing step activates.
constexpr int kMaxRows = 3;
constexpr std::uint64_t kUnset = ~std::uint64_t{0};
/// Draw d of class k in a step is keyed mix64(stepKey + k * kClassStride + d).
constexpr std::uint64_t kClassStride = std::uint64_t{1} << 48;

/// A keyed draw as an integer r in [1, 2^53]: the uniform r / 2^53 in (0, 1].
std::uint64_t drawRank(std::uint64_t key) {
  return (reliability::mix64(key) >> 11) + 1;
}

/// Ranks skipped before the next flip, Geometric(p) by inversion of the
/// draw \p r (\p invLogQ = 1 / log(1 - p)).
double gapOf(std::uint64_t r, double invLogQ) {
  return std::floor(std::log(static_cast<double>(r) * 0x1.0p-53) * invLogQ);
}

/// One pass over the operand words: \p out gets the ideal sensed value (the
/// classes set in \p idealSet, ORed).  For each class k in \p maskSet,
/// masks[k * words + w] gets the columns where exactly k operands store '1'
/// and counts[k] adds their popcount.  Word w of every operand is read
/// before word w of \p out is written, so \p out may alias an operand.
AIMSC_POPCNT_CLONES void senseWords(const std::uint64_t* const* in, int rows,
                                    std::uint64_t invertFirst,
                                    unsigned idealSet, std::size_t words,
                                    std::uint64_t tail, std::uint64_t* out,
                                    unsigned maskSet, std::uint64_t* masks,
                                    std::size_t* counts) {
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t live = w + 1 == words ? tail : ~std::uint64_t{0};
    const std::uint64_t a = in[0][w] ^ invertFirst;
    std::uint64_t m[4];
    if (rows == 1) {
      m[0] = ~a;
      m[1] = a;
    } else if (rows == 2) {
      const std::uint64_t b = in[1][w];
      m[0] = ~(a | b);
      m[1] = a ^ b;
      m[2] = a & b;
    } else {
      const std::uint64_t b = in[1][w];
      const std::uint64_t c = in[2][w];
      const std::uint64_t all = a & b & c;
      const std::uint64_t any = a | b | c;
      const std::uint64_t maj = (a & b) | (c & (a | b));
      m[0] = ~any;
      m[1] = any & ~maj;
      m[2] = maj & ~all;
      m[3] = all;
    }
    std::uint64_t o = 0;
    for (int k = 0; k <= rows; ++k) {
      m[k] &= live;
      if ((idealSet >> k) & 1u) o |= m[k];
    }
    out[w] = o;
    for (unsigned s = maskSet; s != 0; s &= s - 1) {
      const auto k = static_cast<std::size_t>(std::countr_zero(s));
      masks[k * words + w] = m[k];
      counts[k] += static_cast<std::size_t>(std::popcount(m[k]));
    }
  }
}

/// One pass of a greater-than chain step over flag F and plane R: F is
/// saved to \p prev, the ideal NOR(NOT F, R) = F AND NOT R goes to \p nor
/// and, for an a = 1 step pair (\p pair), the ideal AND(F, R) to \p flag
/// (\p nor is \p flag for an a = 0 step; the last live a = 1 step senses
/// its NOR term alone).  \p counts gets |F AND NOT R|,
/// |NOT F AND R| and |F AND R|, which with the width give every class count
/// of both steps.  The tails of F and R are zero, so no word needs a mask.
AIMSC_POPCNT_CLONES void senseChainWords(std::uint64_t* flag,
                                         const std::uint64_t* plane,
                                         std::uint64_t* nor,
                                         std::uint64_t* prev, bool pair,
                                         std::size_t words,
                                         std::size_t* counts) {
  std::size_t onlyF = 0;
  std::size_t onlyR = 0;
  std::size_t both = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t f = flag[w];
    const std::uint64_t r = plane[w];
    prev[w] = f;
    nor[w] = f & ~r;
    onlyF += static_cast<std::size_t>(std::popcount(f & ~r));
    onlyR += static_cast<std::size_t>(std::popcount(~f & r));
    both += static_cast<std::size_t>(std::popcount(f & r));
    if (pair) flag[w] = f & r;
  }
  counts[0] = onlyF;
  counts[1] = onlyR;
  counts[2] = both;
}

/// Word of the mask of class \p k of a chain step (0-2: NOR(NOT F, R) with
/// k ones, 3-5: AND(F, R) with k - 3 ones) from flag \p f and plane \p r.
std::uint64_t chainClassWord(int k, std::uint64_t f, std::uint64_t r,
                             std::uint64_t live) {
  switch (k) {
    case 0: return f & ~r;
    case 1: return ~(f ^ r) & live;
    case 2: return ~f & r;
    case 3: return ~(f | r) & live;
    case 4: return f ^ r;
    default: return f & r;
  }
}

/// The draw below which no column of \p c flips: (1 - p)^c of the 2^53
/// draws, from the lane-frozen table \p noFlip (filled on first use).
std::uint64_t quietBelow(std::uint64_t* noFlip, std::size_t c, double invLogQ) {
  std::uint64_t& t = noFlip[c];
  if (t == kUnset) {
    t = static_cast<std::uint64_t>(
        std::exp(static_cast<double>(c) / invLogQ) * 0x1.0p53);
  }
  return t;
}

/// Toggles, in \p out, the columns of \p mask (\p words long, \p cnt set
/// bits) at the ranks the keyed geometric skip visits, starting at rank
/// \p first.  Each later draw first meets the no-flip threshold of the
/// ranks left, so only a draw that places a flip pays a log.  \p before
/// (scratch, \p words long) gets the set mask bits below each word, so
/// rank n lies in word #{w > 0 : before[w] <= n}, and a select finds its
/// column there.
AIMSC_POPCNT_CLONES void flipSkippedRanks(std::uint64_t* out,
                                          const std::uint64_t* mask,
                                          std::size_t words, std::size_t cnt,
                                          std::size_t first,
                                          std::uint64_t classKey,
                                          double invLogQ,
                                          std::uint64_t* noFlip,
                                          std::size_t* before) {
  std::size_t seen = 0;
  for (std::size_t w = 0; w < words; ++w) {
    before[w] = seen;
    seen += static_cast<std::size_t>(std::popcount(mask[w]));
  }
  std::size_t nth = first;
  for (std::uint64_t d = 1;; ++d) {
    std::size_t w = 0;
    for (std::size_t v = 1; v < words; ++v) w += before[v] <= nth ? 1 : 0;
    out[w] ^= sc::selectBit(mask[w], static_cast<unsigned>(nth - before[w]));
    const std::size_t left = cnt - nth - 1;
    if (left == 0) return;
    const std::uint64_t r = drawRank(classKey + d);
    if (r <= quietBelow(noFlip, left, invLogQ)) return;
    const double gap = gapOf(r, invLogQ);
    if (gap >= static_cast<double>(left)) return;  // rounding at the edge
    nth += 1 + static_cast<std::size_t>(gap);
  }
}

/// Mask of the live bits of a width's last word.
std::uint64_t tailMask(std::size_t width) {
  return width % 64 == 0 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << (width % 64)) - 1;
}

}  // namespace

ScoutingLogic::ScoutingLogic(CrossbarArray& array, Fidelity fidelity,
                             const FaultModel* faultModel, std::uint64_t seed)
    : array_(array),
      fidelity_(fidelity),
      faultModel_(faultModel),
      seed_(seed),
      seedKey_(reliability::mix64(seed)),
      senseAmp_(array.params()) {
  if (fidelity_ == Fidelity::Probabilistic) {
    if (faultModel_ == nullptr) {
      throw std::invalid_argument(
          "ScoutingLogic: Probabilistic mode needs a FaultModel");
    }
    flipTable_.resize(kOps * 4 * 4);
  }
  for (std::size_t op = 0; op < kOps; ++op) {
    for (int rows = 1; rows <= kMaxRows; ++rows) {
      for (int ones = 0; ones <= rows; ++ones) {
        if (slIdeal(static_cast<SlOp>(op), ones, rows)) {
          idealSets_[op][static_cast<std::size_t>(rows)] |=
              static_cast<std::uint8_t>(1u << ones);
        }
      }
    }
  }
}

void ScoutingLogic::op2Into(SlOp op, sc::Bitstream& dst, const sc::Bitstream& a,
                            const sc::Bitstream& b) {
  const std::array<const sc::Bitstream*, 2> ops{&a, &b};
  executeInto(op, ops, false, dst);
}

void ScoutingLogic::op2NotAInto(SlOp op, sc::Bitstream& dst,
                                const sc::Bitstream& a,
                                const sc::Bitstream& b) {
  const std::array<const sc::Bitstream*, 2> ops{&a, &b};
  executeInto(op, ops, true, dst);
}

void ScoutingLogic::op3Into(SlOp op, sc::Bitstream& dst, const sc::Bitstream& a,
                            const sc::Bitstream& b, const sc::Bitstream& c) {
  const std::array<const sc::Bitstream*, 3> ops{&a, &b, &c};
  executeInto(op, ops, false, dst);
}

void ScoutingLogic::opInto(SlOp op, sc::Bitstream& dst, Operands operands) {
  executeInto(op, operands, false, dst);
}

void ScoutingLogic::executeInto(SlOp op, Operands operands,
                                bool complementFirst, sc::Bitstream& dst) {
  if (operands.empty()) throw std::invalid_argument("ScoutingLogic: no operands");
  const int rows = static_cast<int>(operands.size());
  if (rows > kMaxRows) {
    throw std::invalid_argument("ScoutingLogic: at most three operands");
  }
  const std::size_t width = operands.front()->size();
  for (const auto* o : operands) {
    if (o->size() != width) {
      throw std::invalid_argument("ScoutingLogic: operand width mismatch");
    }
  }
  if (op == SlOp::Maj3 && rows != 3) {
    throw std::invalid_argument("ScoutingLogic: MAJ3 needs three operands");
  }
  if ((op == SlOp::Xor || op == SlOp::Xnor) && rows != 2) {
    throw std::invalid_argument("ScoutingLogic: XOR/XNOR are two-operand ops");
  }
  if (op == SlOp::Not && rows != 1) {
    throw std::invalid_argument("ScoutingLogic: NOT is single-operand");
  }

  // One sensing step.  The in-step SA latch is part of t_slRead (the IMSNG
  // calibration 78.2 ns = 40 * t_slRead absorbs it); standalone output
  // captures are charged by the caller (ImOps).
  array_.events().add(reram::EventKind::SlRead);
  const std::uint64_t step = step_++;
  if (fidelity_ == Fidelity::MonteCarlo) {
    sampleInto(dst, op, operands, complementFirst);
    return;
  }
  const std::size_t words = (width + 63) / 64;
  // Classes whose entry may hold p > 0 (read or not yet read) get a mask.
  FlipClass* cls[kMaxRows + 1] = {};
  unsigned classes = 0;
  if (fidelity_ == Fidelity::Probabilistic) {
    for (int k = 0; k <= rows; ++k) {
      cls[k] = &entry(op, k, rows);
      if (cls[k]->p != 0.0) classes |= 1u << k;
    }
    const std::size_t maskLen = static_cast<std::size_t>(rows + 1) * words;
    if (maskWords_.size() < maskLen) maskWords_.resize(maskLen);
    if (wordRanks_.size() < words) wordRanks_.resize(words);
  }
  // An aliased dst already has the operand width, so it is not cleared
  // before the pass reads it.
  if (dst.size() != width) dst.assign(width, false);
  const std::uint64_t* in[kMaxRows] = {};
  for (int r = 0; r < rows; ++r) in[r] = operands[r]->words().data();
  std::size_t counts[kMaxRows + 1] = {};
  senseWords(in, rows, complementFirst ? ~std::uint64_t{0} : 0,
             idealSets_[static_cast<std::size_t>(op)]
                       [static_cast<std::size_t>(rows)],
             words, tailMask(width), dst.mutableWords().data(), classes,
             maskWords_.data(), counts);
  if (classes != 0) {
    flipClasses(dst.mutableWords().data(), op, rows, cls, counts, words, step,
                [&](int k) {
                  return static_cast<const std::uint64_t*>(
                      maskWords_.data() + static_cast<std::size_t>(k) * words);
                });
  }
}

void ScoutingLogic::greaterThanInto(std::uint32_t x, Operands planes,
                                    sc::Bitstream& flag,
                                    sc::Bitstream& result) {
  const std::size_t m = planes.size();
  if (m == 0 || m > 32) {
    throw std::invalid_argument("ScoutingLogic: 1 to 32 planes");
  }
  if (std::uint64_t{x} > std::uint64_t{1} << m) {
    throw std::invalid_argument("ScoutingLogic: threshold exceeds 2^M");
  }
  const std::size_t width = planes.front()->size();
  for (const auto* p : planes) {
    if (p->size() != width) {
      throw std::invalid_argument("ScoutingLogic: plane width mismatch");
    }
  }
  if (fidelity_ == Fidelity::MonteCarlo) {
    throw std::invalid_argument(
        "ScoutingLogic: the greater-than chain senses Ideal or Probabilistic "
        "mats");
  }

  if (std::uint64_t{x} == std::uint64_t{1} << m) {
    // No random number reaches 2^M: constant true, and nothing to sense.
    flag.assign(width, false);
    result.assign(width, true);
    return;
  }
  const std::size_t words = (width + 63) / 64;
  flag.assign(width, true);
  result.assign(width, false);
  std::uint64_t* f = flag.mutableWords().data();
  std::uint64_t* res = result.mutableWords().data();
  // Every step of the chain is charged and keeps its ordinal, but only the
  // steps up to the NOR term of x's lowest set bit are sensed: the later
  // ones only move FFlag, which nothing reads after a conversion.
  const std::size_t charged = m + static_cast<std::size_t>(std::popcount(x));
  array_.events().add(reram::EventKind::SlRead, charged);
  std::uint64_t step = step_;
  step_ += charged;
  if (x == 0) return;
  const std::size_t live = m - static_cast<std::size_t>(std::countr_zero(x));

  // A faulty mat looks up its six (op, class) entries once.  A class's
  // entry is read from the model the first time the class has columns, as
  // the one-step forms read it.  The pass only counts the classes; a class
  // gets its mask when a draw flips one of its columns.
  const bool faulty = fidelity_ == Fidelity::Probabilistic;
  FlipClass* cls[6] = {};
  for (int k = 0; faulty && k <= 2; ++k) {
    cls[k] = &entry(SlOp::Nor, k, 2);
    cls[3 + k] = &entry(SlOp::And, k, 2);
  }
  if (maskWords_.size() < 2 * words) maskWords_.resize(2 * words);
  if (wordRanks_.size() < words) wordRanks_.resize(words);
  if (chainTerm_.size() < words) chainTerm_.resize(words);
  std::uint64_t* mask = maskWords_.data();
  const std::uint64_t* prev = mask + words;
  const std::uint64_t tail = tailMask(width);
  for (std::size_t i = 0; i < live; ++i) {
    const bool aBit = ((x >> (m - 1 - i)) & 1u) != 0;
    // The last live plane holds x's lowest set bit: its AND is not sensed.
    const bool pair = aBit && i + 1 < live;
    const std::uint64_t* r = planes[i]->words().data();
    std::uint64_t* nor = aBit ? chainTerm_.data() : f;
    std::size_t c[3];
    senseChainWords(f, r, nor, mask + words, pair, words, c);
    if (faulty) {
      const std::size_t counts[6] = {c[0], width - c[0] - c[1], c[1],
                                     width - c[0] - c[1] - c[2], c[0] + c[1],
                                     c[2]};
      const auto maskOf = [&](int k) {
        for (std::size_t w = 0; w < words; ++w) {
          mask[w] = chainClassWord(k, prev[w], r[w],
                                   w + 1 == words ? tail : ~std::uint64_t{0});
        }
        return static_cast<const std::uint64_t*>(mask);
      };
      flipClasses(nor, SlOp::Nor, 2, cls, counts, words, step, maskOf);
      if (pair) {
        flipClasses(f, SlOp::And, 2, cls + 3, counts + 3, words, step + 1,
                    [&](int k) { return maskOf(3 + k); });
      }
    }
    step += aBit ? 2 : 1;
    if (aBit) {
      for (std::size_t w = 0; w < words; ++w) res[w] |= nor[w];
    }
  }
}

void ScoutingLogic::sampleInto(sc::Bitstream& dst, SlOp op, Operands operands,
                               bool complementFirst) {
  // dst may alias an operand; sample into a scratch stream first.
  const std::size_t width = operands.front()->size();
  const int rows = static_cast<int>(operands.size());
  sampled_.assign(width, false);
  auto& dev = array_.device();
  for (std::size_t c = 0; c < width; ++c) {
    double current = 0.0;
    for (std::size_t r = 0; r < operands.size(); ++r) {
      const bool bit = operands[r]->get(c) != (r == 0 && complementFirst);
      current += dev.sampleCurrent(bit);
    }
    if (senseAmp_.decide(op, rows, current)) sampled_.set(c, true);
  }
  dst = sampled_;
}

template <class MaskOf>
void ScoutingLogic::flipClasses(std::uint64_t* out, SlOp op, int rows,
                                FlipClass* const* cls,
                                const std::size_t* counts, std::size_t words,
                                std::uint64_t step, MaskOf maskOf) {
  // Per pattern class, each of its cnt columns flips independently with
  // the class's p: a keyed geometric skip visits only the flipped ranks
  // (flips + 1 draws), and its first draw alone settles a quiet class.
  const std::uint64_t stepKey = reliability::mix64(seedKey_ + step);
  for (int k = 0; k <= rows; ++k) {
    const std::size_t cnt = counts[k];
    FlipClass& f = *cls[k];
    if (cnt == 0 || f.p == 0.0) continue;
    if (f.p < 0.0) flipClass(op, k, rows);
    if (f.p <= 0.0) continue;
    if (f.p >= 1.0) {
      const std::uint64_t* mask = maskOf(k);
      for (std::size_t w = 0; w < words; ++w) out[w] ^= mask[w];
      continue;
    }
    if (f.noFlip.size() <= cnt) {
      f.noFlip.resize(std::max(cnt, words * 64) + 1, kUnset);
    }
    const std::uint64_t classKey =
        stepKey + static_cast<std::uint64_t>(k) * kClassStride;
    const std::uint64_t r = drawRank(classKey);
    if (r <= quietBelow(f.noFlip.data(), cnt, f.invLogQ)) continue;
    const double first = gapOf(r, f.invLogQ);
    if (first >= static_cast<double>(cnt)) continue;  // rounding at the edge
    flipSkippedRanks(out, maskOf(k), words, cnt,
                     static_cast<std::size_t>(first), classKey, f.invLogQ,
                     f.noFlip.data(), wordRanks_.data());
  }
}

ScoutingLogic::FlipClass& ScoutingLogic::entry(SlOp op, int ones, int rows) {
  return flipTable_[(static_cast<std::size_t>(op) * 4 +
                     static_cast<std::size_t>(rows)) * 4 +
                    static_cast<std::size_t>(ones)];
}

ScoutingLogic::FlipClass& ScoutingLogic::flipClass(SlOp op, int ones,
                                                   int rows) {
  FlipClass& f = entry(op, ones, rows);
  if (f.p < 0.0) {
    f.p = faultModel_->misdecisionProb(op, ones, rows);
    f.invLogQ = f.p > 0.0 && f.p < 1.0 ? 1.0 / std::log1p(-f.p) : 0.0;
  }
  return f;
}

double ScoutingLogic::misdecisionProb(SlOp op, int ones, int rows) {
  if (rows < 1 || rows > kMaxRows || ones < 0 || ones > rows) {
    throw std::invalid_argument("ScoutingLogic: bad (ones, rows) pattern");
  }
  return fidelity_ == Fidelity::Probabilistic ? flipClass(op, ones, rows).p
                                              : 0.0;
}

}  // namespace aimsc::reram
