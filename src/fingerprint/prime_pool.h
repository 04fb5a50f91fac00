#ifndef RSTLAB_FINGERPRINT_PRIME_POOL_H_
#define RSTLAB_FINGERPRINT_PRIME_POOL_H_

#include <cstdint>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace rstlab::fingerprint {

/// The primes <= k for one parameter point, enumerated once by a sieve
/// of Eratosthenes so that repeated draws (Monte-Carlo trials) and full
/// enumerations (the exact-probability path) stop paying a Miller-Rabin
/// rejection loop per prime.
///
/// Sieving is O(k log log k) time and k bits of memory, so it is only
/// attempted up to `sieve_limit`; above that the pool transparently
/// falls back to the rejection sampler (Sample still works, primes() is
/// empty). E2's shapes (m <= 32, n = 24, k <= 1.6e7) and the exact
/// enumeration sieve; the benchmark's Claim 1 shape (m = 4096, n = 32,
/// k ~ 9e13) is far above the default limit and samples by rejection.
class PrimePool {
 public:
  /// A pool over the primes <= k. Requires k >= 2.
  explicit PrimePool(std::uint64_t k,
                     std::uint64_t sieve_limit = std::uint64_t{1} << 27);

  std::uint64_t k() const { return k_; }

  /// True when the primes were enumerated (k <= sieve_limit).
  bool sieved() const { return sieved_; }

  /// The enumerated primes in increasing order; empty when !sieved().
  const std::vector<std::uint64_t>& primes() const { return primes_; }

  /// pi(k) when sieved; 0 otherwise.
  std::uint64_t Count() const { return primes_.size(); }

  /// A prime chosen uniformly among the primes <= k. O(1) when sieved,
  /// expected O(log k) Miller-Rabin tests otherwise. Fails only in the
  /// unsieved fallback if sampling does not converge.
  Result<std::uint64_t> Sample(Rng& rng) const;

 private:
  std::uint64_t k_;
  bool sieved_ = false;
  std::vector<std::uint64_t> primes_;
};

}  // namespace rstlab::fingerprint

#endif  // RSTLAB_FINGERPRINT_PRIME_POOL_H_
