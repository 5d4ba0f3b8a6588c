#include "sc/rng.hpp"

#include <bit>
#include <stdexcept>

namespace aimsc::sc {

double RandomSource::nextUnit(int bits) {
  return static_cast<double>(next(bits)) /
         static_cast<double>(std::uint64_t{1} << bits);
}

// ---------------------------------------------------------------------------
// Lfsr
// ---------------------------------------------------------------------------

Lfsr::Lfsr(int width, std::vector<int> taps, std::uint32_t seed)
    : width_(width), tapMask_(0) {
  if (width < 1 || width > 32) throw std::invalid_argument("Lfsr: width out of range");
  bool hasWidthTap = false;
  for (const int t : taps) {
    if (t < 1 || t > width) throw std::invalid_argument("Lfsr: tap out of range");
    if (t == width) hasWidthTap = true;
    tapMask_ |= std::uint32_t{1} << (t - 1);
  }
  if (!hasWidthTap) throw std::invalid_argument("Lfsr: taps must include width");
  const std::uint32_t mask =
      width == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << width) - 1;
  seed_ = seed & mask;
  if (seed_ == 0) throw std::invalid_argument("Lfsr: zero seed");
  state_ = seed_;
}

Lfsr Lfsr::paper8Bit(std::uint32_t seed) { return Lfsr(8, {8, 5, 3, 1}, seed); }

std::uint32_t Lfsr::step() {
  // Fibonacci form: feedback = parity of tapped bits, shifted into bit 0.
  const std::uint32_t fb = std::popcount(state_ & tapMask_) & 1u;
  const std::uint32_t mask =
      width_ == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << width_) - 1;
  state_ = ((state_ << 1) | fb) & mask;
  return state_;
}

std::uint32_t Lfsr::next(int bits) {
  if (bits < 1 || bits > 32) throw std::invalid_argument("Lfsr::next: bad bits");
  const std::uint32_t v = step();
  if (bits >= width_) {
    // Widen by repeating the state into the low bits; for the common case
    // bits == width this is the identity.
    std::uint32_t out = v;
    int have = width_;
    while (have < bits) {
      out = (out << width_) | v;
      have += width_;
    }
    return out & (bits == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << bits) - 1);
  }
  return v >> (width_ - bits);  // most-significant bits
}

void Lfsr::reset() { state_ = seed_; }

void Lfsr::reseed(std::uint32_t seed) {
  const std::uint32_t mask =
      width_ == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << width_) - 1;
  const std::uint32_t masked = seed & mask;
  if (masked == 0) throw std::invalid_argument("Lfsr: zero seed");
  seed_ = masked;
  state_ = masked;
}

std::unique_ptr<RandomSource> Lfsr::clone() const {
  auto copy = std::make_unique<Lfsr>(*this);
  copy->reset();
  return copy;
}

std::uint64_t Lfsr::period() const {
  Lfsr probe = *this;
  probe.reset();
  const std::uint32_t start = probe.state();
  std::uint64_t count = 0;
  const std::uint64_t limit = std::uint64_t{1} << width_;
  do {
    probe.step();
    ++count;
  } while (probe.state() != start && count <= limit);
  return count;
}

// ---------------------------------------------------------------------------
// Sobol
// ---------------------------------------------------------------------------

namespace {

/// Joe–Kuo primitive-polynomial parameters for dimensions 1..9 (dimension 0
/// is van der Corput).  {s = degree, a = coefficient bits, m = initial
/// direction integers}.
struct JoeKuoEntry {
  int s;
  std::uint32_t a;
  std::uint32_t m[5];
};

constexpr JoeKuoEntry kJoeKuo[] = {
    {1, 0, {1, 0, 0, 0, 0}},       // dim 1
    {2, 1, {1, 3, 0, 0, 0}},       // dim 2
    {3, 1, {1, 3, 1, 0, 0}},       // dim 3
    {3, 2, {1, 1, 1, 0, 0}},       // dim 4
    {4, 1, {1, 1, 3, 3, 0}},       // dim 5
    {4, 4, {1, 3, 5, 13, 0}},      // dim 6
    {5, 2, {1, 1, 5, 5, 17}},      // dim 7
    {5, 4, {1, 1, 5, 5, 5}},       // dim 8
    {5, 7, {1, 1, 7, 11, 19}},     // dim 9
};

}  // namespace

Sobol::Sobol(int dimension, std::uint64_t skip)
    : dimension_(dimension), skip_(skip) {
  if (dimension < 0 || dimension >= kMaxDimension) {
    throw std::invalid_argument("Sobol: dimension out of range");
  }
  init();
  reset();
}

void Sobol::init() {
  constexpr int kBits = 32;
  if (dimension_ == 0) {
    // Van der Corput: v_k = 2^(31-k).
    for (int k = 0; k < kBits; ++k) direction_[k] = std::uint32_t{1} << (31 - k);
    return;
  }
  const JoeKuoEntry& e = kJoeKuo[dimension_ - 1];
  const int s = e.s;
  std::uint32_t m[kBits] = {};
  for (int k = 0; k < s; ++k) m[k] = e.m[k];
  for (int k = s; k < kBits; ++k) {
    std::uint32_t v = m[k - s] ^ (m[k - s] << s);
    for (int j = 1; j < s; ++j) {
      if ((e.a >> (s - 1 - j)) & 1u) v ^= m[k - j] << j;
    }
    m[k] = v;
  }
  for (int k = 0; k < kBits; ++k) direction_[k] = m[k] << (31 - k);
}

std::uint32_t Sobol::next32() {
  // Gray-code construction: emit x_i, then x_{i+1} = x_i ^ v_c where c is
  // the lowest zero bit of i.  The sequence therefore starts at 0.
  const std::uint32_t out = current_;
  const int c = std::countr_one(index_);
  current_ ^= direction_[c];
  ++index_;
  return out;
}

std::uint32_t Sobol::next(int bits) {
  if (bits < 1 || bits > 32) throw std::invalid_argument("Sobol::next: bad bits");
  return next32() >> (32 - bits);
}

void Sobol::reset() {
  index_ = 0;
  current_ = 0;
  for (std::uint64_t i = 0; i < skip_; ++i) next32();
}

void Sobol::reseat(int dimension, std::uint64_t skip) {
  if (dimension < 0 || dimension >= kMaxDimension) {
    throw std::invalid_argument("Sobol: dimension out of range");
  }
  dimension_ = dimension;
  skip_ = skip;
  init();
  reset();
}

std::unique_ptr<RandomSource> Sobol::clone() const {
  return std::make_unique<Sobol>(dimension_, skip_);
}

// ---------------------------------------------------------------------------
// Mt19937Source
// ---------------------------------------------------------------------------

Mt19937Source::Mt19937Source(std::uint64_t seed) : seed_(seed), eng_(seed) {}

std::uint32_t Mt19937Source::next(int bits) {
  if (bits < 1 || bits > 32) throw std::invalid_argument("Mt19937Source::next: bad bits");
  return static_cast<std::uint32_t>(eng_() >> (64 - bits));
}

void Mt19937Source::reset() { eng_.seed(seed_); }

std::unique_ptr<RandomSource> Mt19937Source::clone() const {
  return std::make_unique<Mt19937Source>(seed_);
}

// ---------------------------------------------------------------------------
// TrngSource
// ---------------------------------------------------------------------------

TrngSource::TrngSource(std::uint64_t seed, double onesBias)
    : seed_(seed), onesBias_(onesBias), eng_(seed) {
  if (onesBias < -0.5 || onesBias > 0.5) {
    throw std::invalid_argument("TrngSource: bias out of [-0.5, 0.5]");
  }
}

void TrngSource::setOnesBias(double bias) {
  if (bias < -0.5 || bias > 0.5) {
    throw std::invalid_argument("TrngSource::setOnesBias: out of range");
  }
  onesBias_ = bias;
}

bool TrngSource::nextBit() {
  // 53-bit uniform double in [0,1).
  const double u = static_cast<double>(eng_() >> 11) * 0x1.0p-53;
  return u < 0.5 + onesBias_;
}

Bitstream TrngSource::randomBits(std::size_t n) {
  Bitstream s;
  randomBitsInto(s, n);
  return s;
}

void TrngSource::randomBitsInto(Bitstream& dst, std::size_t n) {
  dst.assign(n, false);
  if (onesBias_ == 0.0) {
    auto& words = dst.mutableWords();
    for (auto& w : words) w = eng_();
    dst.clearTail();
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (nextBit()) dst.set(i, true);
  }
}

std::uint32_t TrngSource::next(int bits) {
  if (bits < 1 || bits > 32) throw std::invalid_argument("TrngSource::next: bad bits");
  // An M-bit random number is a segment of M raw TRNG bits (paper Fig. 2).
  std::uint32_t v = 0;
  for (int i = 0; i < bits; ++i) v = (v << 1) | (nextBit() ? 1u : 0u);
  return v;
}

void TrngSource::reset() { eng_.seed(seed_); }

std::unique_ptr<RandomSource> TrngSource::clone() const {
  return std::make_unique<TrngSource>(seed_, onesBias_);
}

}  // namespace aimsc::sc
