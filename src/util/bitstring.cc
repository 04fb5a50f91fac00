#include "util/bitstring.h"

#include <algorithm>
#include <cassert>

namespace rstlab {
namespace {

// Bit i of the string lives in word i/64 at mask 1 << (63 - i%64), i.e.
// strings pack big-endian within each word. With unused trailing bits kept
// at zero, whole-word unsigned comparison yields lexicographic order.
constexpr std::uint64_t MaskFor(std::size_t i) {
  return std::uint64_t{1} << (63 - (i % 64));
}

}  // namespace

BitString::BitString(std::size_t length)
    : size_(length), words_((length + 63) / 64, 0) {}

BitString BitString::FromString(const std::string& bits) {
  BitString out(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    assert(bits[i] == '0' || bits[i] == '1');
    out.set_bit(i, bits[i] == '1');
  }
  return out;
}

BitString BitString::FromUint64(std::uint64_t value, std::size_t length) {
  assert(length >= 64 || value < (std::uint64_t{1} << length));
  BitString out(length);
  for (std::size_t i = 0; i < length && i < 64; ++i) {
    // Bit `length - 1 - i` of `value` is string position i from the right.
    out.set_bit(length - 1 - i, (value >> i) & 1);
  }
  return out;
}

BitString BitString::Random(std::size_t length, Rng& rng) {
  BitString out(length);
  for (auto& word : out.words_) word = rng.Next64();
  // Clear unused trailing bits so comparisons stay well-defined.
  const std::size_t tail = length % 64;
  if (tail != 0 && !out.words_.empty()) {
    out.words_.back() &= ~std::uint64_t{0} << (64 - tail);
  }
  return out;
}

bool BitString::bit(std::size_t i) const {
  assert(i < size_);
  return (words_[i / 64] & MaskFor(i)) != 0;
}

void BitString::set_bit(std::size_t i, bool value) {
  assert(i < size_);
  if (value) {
    words_[i / 64] |= MaskFor(i);
  } else {
    words_[i / 64] &= ~MaskFor(i);
  }
}

void BitString::PushBack(bool value) {
  if (size_ % 64 == 0) words_.push_back(0);
  ++size_;
  set_bit(size_ - 1, value);
}

std::string BitString::ToString() const {
  std::string out(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (bit(i)) out[i] = '1';
  }
  return out;
}

std::uint64_t BitString::ToUint64() const {
  assert(size_ <= 64);
  if (size_ == 0) return 0;
  return words_[0] >> (64 - size_);
}

std::uint64_t BitString::TopBits(std::size_t count) const {
  assert(count <= size_ && count <= 64);
  if (count == 0) return 0;
  return words_[0] >> (64 - count);
}

std::uint64_t BitString::ModUint64(std::uint64_t modulus) const {
  assert(modulus > 0);
  // Horner evaluation in base 2^64: residue <- (residue * 2^64 + word)
  // mod p, one division per packed word. residue < p keeps every
  // dividend below p * 2^64, and a zero residue (always the case at the
  // first word) needs only a 64-bit division.
  const auto step = [modulus](std::uint64_t residue, std::uint64_t word,
                              unsigned width) -> std::uint64_t {
    if (residue == 0) return word % modulus;
    const unsigned __int128 dividend =
        (static_cast<unsigned __int128>(residue) << width) | word;
    return static_cast<std::uint64_t>(dividend % modulus);
  };
  const std::size_t full_words = size_ / 64;
  std::uint64_t residue = 0;
  for (std::size_t w = 0; w < full_words; ++w) {
    residue = step(residue, words_[w], 64);
  }
  // The last word holds the size_ % 64 trailing bits at its top.
  const unsigned tail = static_cast<unsigned>(size_ % 64);
  if (tail != 0) {
    residue = step(residue, words_[full_words] >> (64 - tail), tail);
  }
  return residue;
}

std::strong_ordering BitString::operator<=>(const BitString& other) const {
  const std::size_t common_words =
      std::min(words_.size(), other.words_.size());
  for (std::size_t w = 0; w < common_words; ++w) {
    if (words_[w] != other.words_[w]) {
      return words_[w] < other.words_[w] ? std::strong_ordering::less
                                         : std::strong_ordering::greater;
    }
  }
  return size_ <=> other.size_;
}

bool BitString::operator==(const BitString& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::size_t BitStringHash::operator()(const BitString& s) const {
  // FNV-1a over the string's bits plus its length.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(s.size());
  for (std::size_t i = 0; i < s.size(); i += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, s.size() - i);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < chunk; ++j) {
      word = (word << 1) | (s.bit(i + j) ? 1 : 0);
    }
    mix(word);
  }
  return static_cast<std::size_t>(h);
}

}  // namespace rstlab
