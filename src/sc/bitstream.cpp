#include "sc/bitstream.hpp"

#include <bit>
#include <stdexcept>

namespace aimsc::sc {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t wordCount(std::size_t n) { return (n + kWordBits - 1) / kWordBits; }
}  // namespace

Bitstream::Bitstream(std::size_t n) : size_(n), words_(wordCount(n), 0) {}

Bitstream::Bitstream(std::size_t n, bool fill) : size_(n), words_(wordCount(n), 0) {
  if (fill) {
    for (auto& w : words_) w = ~std::uint64_t{0};
    clearTail();
  }
}

Bitstream Bitstream::fromBits(const std::vector<bool>& bits) {
  Bitstream s(bits.size());
  std::uint64_t word = 0;
  std::size_t w = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) word |= std::uint64_t{1} << (i % kWordBits);
    if ((i + 1) % kWordBits == 0) {
      s.words_[w++] = word;
      word = 0;
    }
  }
  if (bits.size() % kWordBits != 0) s.words_[w] = word;
  return s;
}

Bitstream Bitstream::fromString(const std::string& str) {
  Bitstream s(str.size());
  std::uint64_t word = 0;
  std::size_t w = 0;
  for (std::size_t i = 0; i < str.size(); ++i) {
    const char c = str[i];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("Bitstream::fromString: invalid character");
    }
    if (c == '1') word |= std::uint64_t{1} << (i % kWordBits);
    if ((i + 1) % kWordBits == 0) {
      s.words_[w++] = word;
      word = 0;
    }
  }
  if (str.size() % kWordBits != 0) s.words_[w] = word;
  return s;
}

bool Bitstream::get(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("Bitstream::get: index out of range");
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void Bitstream::set(std::size_t i, bool v) {
  if (i >= size_) throw std::out_of_range("Bitstream::set: index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (v) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

AIMSC_POPCNT_CLONES std::size_t Bitstream::popcount() const {
  std::size_t n = 0;
  for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

double Bitstream::value() const {
  if (size_ == 0) return 0.0;
  return static_cast<double>(popcount()) / static_cast<double>(size_);
}

void Bitstream::checkSameSize(const Bitstream& o) const {
  if (size_ != o.size_) {
    throw std::invalid_argument("Bitstream: length mismatch (" +
                                std::to_string(size_) + " vs " +
                                std::to_string(o.size_) + ")");
  }
}

Bitstream Bitstream::operator&(const Bitstream& o) const {
  Bitstream r = *this;
  r &= o;
  return r;
}

Bitstream Bitstream::operator|(const Bitstream& o) const {
  Bitstream r = *this;
  r |= o;
  return r;
}

Bitstream Bitstream::operator^(const Bitstream& o) const {
  Bitstream r = *this;
  r ^= o;
  return r;
}

Bitstream Bitstream::operator~() const {
  Bitstream r = *this;
  for (auto& w : r.words_) w = ~w;
  r.clearTail();
  return r;
}

Bitstream& Bitstream::operator&=(const Bitstream& o) {
  checkSameSize(o);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

Bitstream& Bitstream::operator|=(const Bitstream& o) {
  checkSameSize(o);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

Bitstream& Bitstream::operator^=(const Bitstream& o) {
  checkSameSize(o);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

bool Bitstream::operator==(const Bitstream& o) const {
  return size_ == o.size_ && words_ == o.words_;
}

Bitstream Bitstream::majority(const Bitstream& a, const Bitstream& b,
                              const Bitstream& c) {
  a.checkSameSize(b);
  a.checkSameSize(c);
  Bitstream r(a.size_);
  for (std::size_t i = 0; i < r.words_.size(); ++i) {
    const std::uint64_t x = a.words_[i];
    const std::uint64_t y = b.words_[i];
    const std::uint64_t z = c.words_[i];
    r.words_[i] = (x & y) | (x & z) | (y & z);
  }
  return r;
}

Bitstream Bitstream::mux(const Bitstream& a, const Bitstream& b,
                         const Bitstream& sel) {
  a.checkSameSize(b);
  a.checkSameSize(sel);
  Bitstream r(a.size_);
  for (std::size_t i = 0; i < r.words_.size(); ++i) {
    r.words_[i] = (sel.words_[i] & a.words_[i]) | (~sel.words_[i] & b.words_[i]);
  }
  r.clearTail();
  return r;
}

namespace {
void resizeFor(Bitstream& dst, const Bitstream& shape) {
  if (dst.size() != shape.size()) dst.assign(shape.size(), false);
}
}  // namespace

void Bitstream::assign(std::size_t n, bool v) {
  size_ = n;
  words_.assign(wordCount(n), v ? ~std::uint64_t{0} : 0);
  if (v) clearTail();
}

void Bitstream::andInto(Bitstream& dst, const Bitstream& a, const Bitstream& b) {
  a.checkSameSize(b);
  resizeFor(dst, a);
  for (std::size_t i = 0; i < dst.words_.size(); ++i) {
    dst.words_[i] = a.words_[i] & b.words_[i];
  }
}

void Bitstream::orInto(Bitstream& dst, const Bitstream& a, const Bitstream& b) {
  a.checkSameSize(b);
  resizeFor(dst, a);
  for (std::size_t i = 0; i < dst.words_.size(); ++i) {
    dst.words_[i] = a.words_[i] | b.words_[i];
  }
}

void Bitstream::xorInto(Bitstream& dst, const Bitstream& a, const Bitstream& b) {
  a.checkSameSize(b);
  resizeFor(dst, a);
  for (std::size_t i = 0; i < dst.words_.size(); ++i) {
    dst.words_[i] = a.words_[i] ^ b.words_[i];
  }
}

void Bitstream::notInto(Bitstream& dst, const Bitstream& a) {
  resizeFor(dst, a);
  for (std::size_t i = 0; i < dst.words_.size(); ++i) {
    dst.words_[i] = ~a.words_[i];
  }
  dst.clearTail();
}

void Bitstream::majorityInto(Bitstream& dst, const Bitstream& a,
                             const Bitstream& b, const Bitstream& c) {
  a.checkSameSize(b);
  a.checkSameSize(c);
  resizeFor(dst, a);
  for (std::size_t i = 0; i < dst.words_.size(); ++i) {
    const std::uint64_t x = a.words_[i];
    const std::uint64_t y = b.words_[i];
    const std::uint64_t z = c.words_[i];
    dst.words_[i] = (x & y) | (x & z) | (y & z);
  }
}

void Bitstream::muxInto(Bitstream& dst, const Bitstream& a, const Bitstream& b,
                        const Bitstream& sel) {
  a.checkSameSize(b);
  a.checkSameSize(sel);
  resizeFor(dst, a);
  for (std::size_t i = 0; i < dst.words_.size(); ++i) {
    dst.words_[i] =
        (sel.words_[i] & a.words_[i]) | (~sel.words_[i] & b.words_[i]);
  }
  dst.clearTail();
}

Bitstream Bitstream::exactlyOne(const std::vector<const Bitstream*>& rows) {
  if (rows.empty()) throw std::invalid_argument("exactlyOne: no rows");
  const std::size_t n = rows.front()->size();
  for (const auto* r : rows) rows.front()->checkSameSize(*r);
  Bitstream atLeastOne(n);
  Bitstream atLeastTwo(n);
  for (const auto* row : rows) {
    for (std::size_t i = 0; i < atLeastOne.words_.size(); ++i) {
      atLeastTwo.words_[i] |= atLeastOne.words_[i] & row->words_[i];
      atLeastOne.words_[i] |= row->words_[i];
    }
  }
  Bitstream r(n);
  for (std::size_t i = 0; i < r.words_.size(); ++i) {
    r.words_[i] = atLeastOne.words_[i] & ~atLeastTwo.words_[i];
  }
  r.clearTail();
  return r;
}

std::string Bitstream::toString() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

void Bitstream::clearTail() {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << rem) - 1;
  }
}

}  // namespace aimsc::sc
