#ifndef RSTLAB_FINGERPRINT_MONTGOMERY_H_
#define RSTLAB_FINGERPRINT_MONTGOMERY_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace rstlab::fingerprint {

/// Montgomery arithmetic modulo a fixed odd modulus p >= 3, R = 2^64:
/// the one 64-bit modular multiply of the fingerprint code (the
/// primality test, the tape tester, the scalar and wide batch paths and
/// the Claim 1 residues).
///
/// Mul(a, b) = a * b * R^-1 mod p needs no division: with
/// p_inv = p^-1 mod R and T = a * b,
///   m = (T mod R) * p_inv mod R,   t = (T - m * p) / R.
/// T - m*p is divisible by R, its low words cancel exactly, so t is the
/// high word of T minus the high word of m*p; when T < p * R both high
/// words are below p and one conditional add of p brings t into
/// [0, p). That is three 64x64 multiplies and a compare per call, and
/// the bound holds for every odd p < 2^64 (no headroom bit is needed).
///
/// Values in "Montgomery form" are a * R mod p. ToMont/Reduce convert
/// in and out; Mul of a Montgomery-form operand with a normal-form one
/// yields a normal-form product, which the batch engine's table rows
/// use to skip conversions altogether.
class Montgomery {
 public:
  /// Precomputes p^-1 mod R and R^2 mod p. An even modulus or one
  /// below 3 aborts in every build mode: it has no inverse mod R, and
  /// every later product would be silently wrong.
  explicit Montgomery(std::uint64_t modulus) : modulus_(modulus) {
    if (modulus < 3 || modulus % 2 == 0) {
      std::fprintf(stderr,
                   "Montgomery: modulus %" PRIu64 " is not an odd number"
                   " >= 3\n",
                   modulus);
      std::abort();
    }
    // Newton's iteration doubles the correct low bits of the inverse;
    // p * p = 1 (mod 8) for odd p seeds it with 3 bits.
    inverse_ = modulus;
    for (int i = 0; i < 5; ++i) inverse_ *= 2 - modulus * inverse_;
    // R mod p = (R - p) mod p, squared once more for R^2 mod p: the
    // context's only two divisions.
    const std::uint64_t r = (0 - modulus) % modulus;
    r_squared_ = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(r) * r % modulus);
  }

  std::uint64_t modulus() const { return modulus_; }

  /// a * b * R^-1 mod p, fully reduced. Requires a * b < p * R, which
  /// holds whenever one operand is below p.
  std::uint64_t Mul(std::uint64_t a, std::uint64_t b) const {
    const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
    const std::uint64_t m = static_cast<std::uint64_t>(t) * inverse_;
    const std::uint64_t high = static_cast<std::uint64_t>(t >> 64);
    const std::uint64_t correction = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(m) * modulus_) >> 64);
    const std::uint64_t r = high - correction;
    return high < correction ? r + modulus_ : r;
  }

  /// w * R^-1 mod p for any 64-bit w: converts out of Montgomery form,
  /// and on a raw word is a residue class label (w and w' get equal
  /// labels iff w = w' mod p).
  std::uint64_t Reduce(std::uint64_t w) const { return Mul(w, 1); }

  /// a * R mod p, the Montgomery form of any 64-bit a.
  std::uint64_t ToMont(std::uint64_t a) const { return Mul(a, r_squared_); }

  /// (a * b) mod p for any 64-bit a, b.
  std::uint64_t MulMod(std::uint64_t a, std::uint64_t b) const {
    return Mul(ToMont(a), b);
  }

  /// (base ^ exponent) mod p for any 64-bit base, by square-and-multiply
  /// in Montgomery form.
  std::uint64_t PowMod(std::uint64_t base, std::uint64_t exponent) const {
    std::uint64_t power = ToMont(base);
    std::uint64_t result = ToMont(1);
    while (exponent > 0) {
      if (exponent & 1) result = Mul(result, power);
      exponent >>= 1;
      if (exponent > 0) power = Mul(power, power);
    }
    return Reduce(result);
  }

 private:
  std::uint64_t modulus_;
  std::uint64_t inverse_;    // modulus^-1 mod 2^64
  std::uint64_t r_squared_;  // 2^128 mod modulus
};

}  // namespace rstlab::fingerprint

#endif  // RSTLAB_FINGERPRINT_MONTGOMERY_H_
