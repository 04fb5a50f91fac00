#ifndef RSTLAB_FINGERPRINT_PRIME_H_
#define RSTLAB_FINGERPRINT_PRIME_H_

#include <cstdint>

#include "util/random.h"
#include "util/status.h"

namespace rstlab::fingerprint {

/// (a * b) mod modulus by a 128-bit division. This and PowMod are the
/// independent reference the tests hold Montgomery against; no library
/// path calls them (see fingerprint/montgomery.h).
std::uint64_t MulMod(std::uint64_t a, std::uint64_t b,
                     std::uint64_t modulus);

/// (base ^ exponent) mod modulus by square-and-multiply over MulMod.
std::uint64_t PowMod(std::uint64_t base, std::uint64_t exponent,
                     std::uint64_t modulus);

/// Deterministic primality test, exact for all 64-bit integers
/// (Miller-Rabin with bases {2, 7, 61} below 4,759,123,141 and the
/// standard 12-base witness set above, in Montgomery arithmetic).
bool IsPrime(std::uint64_t n);

/// A prime chosen uniformly at random among the primes <= k (paper
/// Theorem 8(a), step (2): sample candidates and test). Fails for k < 2.
Result<std::uint64_t> RandomPrimeAtMost(std::uint64_t k, Rng& rng);

/// The smallest prime p with 3k < p <= 6k, which exists by Bertrand's
/// postulate (Theorem 8(a), step (3)). Fails if 6k overflows.
Result<std::uint64_t> PrimeInBertrandInterval(std::uint64_t k);

/// Number of primes <= k by direct counting (O(k) time; test/diagnostic
/// use on small k only).
std::uint64_t CountPrimesUpTo(std::uint64_t k);

}  // namespace rstlab::fingerprint

#endif  // RSTLAB_FINGERPRINT_PRIME_H_
