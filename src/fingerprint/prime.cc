#include "fingerprint/prime.h"

#include <array>

#include "fingerprint/montgomery.h"

namespace rstlab::fingerprint {

std::uint64_t MulMod(std::uint64_t a, std::uint64_t b,
                     std::uint64_t modulus) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % modulus);
}

std::uint64_t PowMod(std::uint64_t base, std::uint64_t exponent,
                     std::uint64_t modulus) {
  if (modulus == 1) return 0;
  std::uint64_t result = 1;
  base %= modulus;
  while (exponent > 0) {
    if (exponent & 1) result = MulMod(result, base, modulus);
    base = MulMod(base, base, modulus);
    exponent >>= 1;
  }
  return result;
}

namespace {

/// Whether odd n > 2 (the context's modulus) with n - 1 = d * 2^r
/// passes the strong-probable-prime test to base a (a % n != 0).
bool StrongProbablePrime(const Montgomery& mont, std::uint64_t d, int r,
                         std::uint64_t a) {
  const std::uint64_t n = mont.modulus();
  std::uint64_t x = mont.PowMod(a, d);
  if (x == 1 || x == n - 1) return true;
  for (int i = 0; i < r - 1; ++i) {
    x = mont.MulMod(x, x);
    if (x == n - 1) return true;
  }
  return false;
}

}  // namespace

bool IsPrime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                          19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // Miller-Rabin witness sets: {2, 7, 61} is exact below 4,759,123,141
  // (its smallest strong pseudoprime to all three bases), the 12 primes
  // up to 37 for every n < 2^64. A base that n divides says nothing and
  // is skipped (n = 61 would otherwise be called composite).
  static constexpr std::array<std::uint64_t, 3> kSmallBases = {2, 7, 61};
  static constexpr std::array<std::uint64_t, 12> kAllBases = {
      2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
  const Montgomery mont(n);
  const auto passes = [&](const auto& bases) {
    for (const std::uint64_t a : bases) {
      if (a % n != 0 && !StrongProbablePrime(mont, d, r, a)) return false;
    }
    return true;
  };
  return n < 4759123141ULL ? passes(kSmallBases) : passes(kAllBases);
}

Result<std::uint64_t> RandomPrimeAtMost(std::uint64_t k, Rng& rng) {
  if (k < 2) {
    return Status::InvalidArgument("no prime <= " + std::to_string(k));
  }
  // Expected O(ln k) attempts by the prime number theorem; the cap only
  // guards against adversarially tiny k.
  for (int attempt = 0; attempt < 64 * 64; ++attempt) {
    const std::uint64_t candidate = rng.UniformInRange(2, k);
    if (IsPrime(candidate)) return candidate;
  }
  return Status::Internal("prime sampling did not converge");
}

Result<std::uint64_t> PrimeInBertrandInterval(std::uint64_t k) {
  if (k == 0 || k > (~std::uint64_t{0}) / 6) {
    return Status::OutOfRange("6k overflows uint64");
  }
  for (std::uint64_t p = 3 * k + 1; p <= 6 * k; ++p) {
    if (IsPrime(p)) return p;
  }
  return Status::Internal("Bertrand interval contained no prime");
}

std::uint64_t CountPrimesUpTo(std::uint64_t k) {
  std::uint64_t count = 0;
  for (std::uint64_t p = 2; p <= k; ++p) {
    if (IsPrime(p)) ++count;
  }
  return count;
}

}  // namespace rstlab::fingerprint
