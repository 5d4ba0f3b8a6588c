/// \file bitstream.hpp
/// \brief Packed stochastic bit-stream (SBS) container and bulk bitwise ops.
///
/// In stochastic computing a value x in [0,1] is encoded by the probability
/// of observing a '1' in a random bit-stream (paper Sec. II-B).  This class
/// stores such a stream packed 64 bits per word and provides the bulk
/// bitwise operations (AND/OR/XOR/NOT/MAJ) that scouting logic executes in
/// the ReRAM array.  All operations are length-preserving; mixing lengths is
/// a programming error and throws std::invalid_argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// Marks a function whose hot loop is std::popcount: on x86-64 it is built
/// twice, with and without the POPCNT instruction, and the loader picks the
/// clone the CPU supports (GCC/Clang function multiversioning).  A build
/// for the x86-64 baseline otherwise lowers std::popcount to a library
/// call.  Both clones compute the same value.  ThreadSanitizer builds keep
/// the baseline only: the loader runs the clone resolver before the TSan
/// runtime is initialised, and the instrumented resolver crashes.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define AIMSC_POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#else
#define AIMSC_POPCNT_CLONES
#endif

/// \namespace aimsc::sc
/// \brief Stochastic-computing primitives: packed bit-streams, random
///        sources, stochastic number generation and SC gate ops.
namespace aimsc::sc {

/// Fixed-length packed bit-stream.  Bit i of the stream is bit (i % 64) of
/// word (i / 64).  Tail bits beyond size() are kept zero as a class
/// invariant so popcount() can run over whole words.
class Bitstream {
 public:
  /// Creates an empty (zero-length) stream.
  Bitstream() = default;

  /// Creates an all-zero stream of \p n bits.
  explicit Bitstream(std::size_t n);

  /// Creates a stream of \p n bits, all set to \p fill.
  Bitstream(std::size_t n, bool fill);

  /// Builds a stream from a vector of bools (bit i = bits[i]).
  static Bitstream fromBits(const std::vector<bool>& bits);

  /// Builds a stream from a '0'/'1' string, e.g. "10101".
  static Bitstream fromString(const std::string& s);

  /// Stream length in bits.
  std::size_t size() const { return size_; }
  /// True when the stream has zero length.
  bool empty() const { return size_ == 0; }

  /// Bit \p i (0-based; \p i must be < size()).
  bool get(std::size_t i) const;
  /// Sets bit \p i to \p v.
  void set(std::size_t i, bool v);

  /// Number of '1' bits.
  std::size_t popcount() const;

  /// Estimated encoded value: popcount / size.  Returns 0 for empty streams.
  double value() const;

  /// Bulk bitwise AND (new stream; throws on length mismatch).
  Bitstream operator&(const Bitstream& o) const;
  /// Bulk bitwise OR (new stream; throws on length mismatch).
  Bitstream operator|(const Bitstream& o) const;
  /// Bulk bitwise XOR (new stream; throws on length mismatch).
  Bitstream operator^(const Bitstream& o) const;
  /// Bulk bitwise NOT (new stream).
  Bitstream operator~() const;

  /// In-place bulk AND (throws on length mismatch).
  Bitstream& operator&=(const Bitstream& o);
  /// In-place bulk OR (throws on length mismatch).
  Bitstream& operator|=(const Bitstream& o);
  /// In-place bulk XOR (throws on length mismatch).
  Bitstream& operator^=(const Bitstream& o);

  /// Exact equality: same length and same bits.
  bool operator==(const Bitstream& o) const;
  /// Negation of operator==.
  bool operator!=(const Bitstream& o) const { return !(*this == o); }

  /// Three-input majority: out[i] = 1 iff at least two of a,b,c are 1.
  /// This is the CIM-friendly MUX replacement used for scaled addition
  /// (paper Sec. III-B): MAJ = (a&b) | (a&c) | (b&c).
  static Bitstream majority(const Bitstream& a, const Bitstream& b,
                            const Bitstream& c);

  /// 2-to-1 multiplexer: out[i] = sel[i] ? a[i] : b[i].  Exact MUX used by
  /// the conventional CMOS scaled adder and by image compositing.
  static Bitstream mux(const Bitstream& a, const Bitstream& b,
                       const Bitstream& sel);

  // --- allocation-free variants for hot loops -------------------------------
  // All *Into forms resize \p dst to the operand length (reusing its buffer
  // when capacities match) and may alias any operand.

  /// dst = a & b.
  static void andInto(Bitstream& dst, const Bitstream& a, const Bitstream& b);
  /// dst = a | b.
  static void orInto(Bitstream& dst, const Bitstream& a, const Bitstream& b);
  /// dst = a ^ b.
  static void xorInto(Bitstream& dst, const Bitstream& a, const Bitstream& b);
  /// dst = ~a.
  static void notInto(Bitstream& dst, const Bitstream& a);
  /// dst = MAJ(a, b, c).
  static void majorityInto(Bitstream& dst, const Bitstream& a,
                           const Bitstream& b, const Bitstream& c);
  /// dst = sel ? a : b.
  static void muxInto(Bitstream& dst, const Bitstream& a, const Bitstream& b,
                      const Bitstream& sel);

  /// Resizes to \p n bits and sets every bit to \p v, reusing the buffer.
  void assign(std::size_t n, bool v);

  /// Returns a stream whose bit i is 1 iff exactly one of a[i], b[i] is 1
  /// among k activated rows — provided for k-row generalizations in tests.
  static Bitstream exactlyOne(const std::vector<const Bitstream*>& rows);

  /// '0'/'1' rendering (MSB-agnostic; index 0 first).
  std::string toString() const;

  /// Raw packed words (read-only), tail bits zero.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Direct word access for high-throughput kernels.  The caller must
  /// preserve the zero-tail invariant; clearTail() re-establishes it.
  std::vector<std::uint64_t>& mutableWords() { return words_; }
  /// Zeroes the bits beyond size() in the last word (the class invariant
  /// mutableWords() writers must restore).
  void clearTail();

 private:
  void checkSameSize(const Bitstream& o) const;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace aimsc::sc
