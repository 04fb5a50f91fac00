#include "fingerprint/prime_pool.h"

#include <cassert>

namespace rstlab::fingerprint {

PrimePool::PrimePool(std::uint64_t k, std::uint64_t sieve_limit) : k_(k) {
  assert(k >= 2);
  if (k > sieve_limit) return;
  std::vector<bool> composite(static_cast<std::size_t>(k) + 1, false);
  for (std::uint64_t p = 2; p * p <= k; ++p) {
    if (composite[static_cast<std::size_t>(p)]) continue;
    for (std::uint64_t q = p * p; q <= k; q += p) {
      composite[static_cast<std::size_t>(q)] = true;
    }
  }
  for (std::uint64_t p = 2; p <= k; ++p) {
    if (!composite[static_cast<std::size_t>(p)]) primes_.push_back(p);
  }
  sieved_ = true;
}

}  // namespace rstlab::fingerprint
