#ifndef RSTLAB_UTIL_BITSTRING_H_
#define RSTLAB_UTIL_BITSTRING_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/random.h"

namespace rstlab {

/// A fixed-length string over {0,1}, most-significant bit first.
///
/// The paper's input items v_i, v'_i are 0-1 strings of a common length n,
/// ordered lexicographically (which, for equal lengths, coincides with the
/// numeric order when a string is read as the binary representation of an
/// integer in {0, ..., 2^n - 1}). Bits are packed 64 per word; bit index 0
/// is the leftmost (most significant) bit.
class BitString {
 public:
  /// The empty bit string.
  BitString() = default;

  /// An all-zero string of `length` bits.
  explicit BitString(std::size_t length);

  /// Parses a string of '0'/'1' characters. Any other character is
  /// undefined behaviour (checked by assert in debug builds).
  static BitString FromString(const std::string& bits);

  /// The length-`length` binary representation of `value`
  /// (most-significant bit first). Requires `value < 2^length` when
  /// `length < 64`.
  static BitString FromUint64(std::uint64_t value, std::size_t length);

  /// A uniformly random string of `length` bits.
  static BitString Random(std::size_t length, Rng& rng);

  /// Number of bits.
  std::size_t size() const { return size_; }
  /// True iff the string has no bits.
  bool empty() const { return size_ == 0; }

  /// The bit at position `i` (0 = leftmost / most significant).
  bool bit(std::size_t i) const;
  /// Sets the bit at position `i`.
  void set_bit(std::size_t i, bool value);

  /// Appends one bit at the right (least-significant) end.
  void PushBack(bool value);

  /// Renders as a string of '0'/'1' characters.
  std::string ToString() const;

  /// The numeric value; requires size() <= 64.
  std::uint64_t ToUint64() const;

  /// The value of the leftmost `count` bits as an integer; requires
  /// `count <= min(size(), 64)`. Used to locate a value's interval
  /// I_j in the CHECK-phi instance construction (Lemma 22).
  std::uint64_t TopBits(std::size_t count) const;

  /// The value of this string modulo `modulus`, computed by one
  /// sequential left-to-right pass keeping only an O(log modulus)-bit
  /// residue — the internal-memory-friendly evaluation of Theorem 8(a),
  /// step (5). The pass consumes the packed bits 64 at a time (Horner
  /// in base 2^64), so it costs ceil(size() / 64) divisions.
  std::uint64_t ModUint64(std::uint64_t modulus) const;

  /// Lexicographic (== numeric, for equal lengths) three-way comparison.
  /// Shorter strings that are prefixes of longer ones compare less.
  std::strong_ordering operator<=>(const BitString& other) const;
  bool operator==(const BitString& other) const;

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Hash functor so BitString can key unordered containers.
struct BitStringHash {
  std::size_t operator()(const BitString& s) const;
};

}  // namespace rstlab

#endif  // RSTLAB_UTIL_BITSTRING_H_
