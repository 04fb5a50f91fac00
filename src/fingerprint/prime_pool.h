#ifndef RSTLAB_FINGERPRINT_PRIME_POOL_H_
#define RSTLAB_FINGERPRINT_PRIME_POOL_H_

#include <cstdint>
#include <vector>


namespace rstlab::fingerprint {

/// The primes <= k, enumerated by a sieve of Eratosthenes for the exact
/// acceptance-probability path, which visits every prime p1 <= k.
/// Random draws never need the enumeration: every estimator draws with
/// RandomPrimeAtMost, at a cost independent of pi(k).
///
/// Sieving is O(k log log k) time and k bits of memory, so it is only
/// attempted up to `sieve_limit`; above that the pool stays empty.
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

 private:
  std::uint64_t k_;
  bool sieved_ = false;
  std::vector<std::uint64_t> primes_;
};

}  // namespace rstlab::fingerprint

#endif  // RSTLAB_FINGERPRINT_PRIME_POOL_H_
