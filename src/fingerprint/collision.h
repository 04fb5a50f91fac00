#ifndef RSTLAB_FINGERPRINT_COLLISION_H_
#define RSTLAB_FINGERPRINT_COLLISION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "problems/instance.h"
#include "util/bitstring.h"

namespace rstlab::fingerprint {

/// The Claim 1 event of one instance, asked for many primes p: is
/// there a pair (i, j) with first[i] = second[j] (mod p) but
/// first[i] != second[j]?
///
/// Construction does the work that does not depend on p, once. It
/// numbers the distinct values of both lists by sorting them under
/// BitString's own order, so "01" and "1" (equal as numbers, different
/// as values) get different ids, and records which lists hold each id.
///
/// Per prime, HasCollision reduces every distinct value once and adds
/// the ids to a flat open-addressed table keyed by residue, whose slots
/// keep the union of the lists their ids came from. An id that meets
/// an occupied slot is a different value with the same residue, so the
/// event happens iff the id is in one list and the slot has seen the
/// other. Each distinct value is handled once, and no BitString is
/// compared.
class Claim1Collisions {
 public:
  explicit Claim1Collisions(const problems::Instance& instance);

  /// The buffers of HasCollision, kept between calls so one thread
  /// reuses them for every prime it tests.
  class Scratch {
   private:
    friend class Claim1Collisions;
    struct Slot {
      std::uint64_t residue = 0;
      std::uint32_t lists = 0;       // union of the ids' lists_ bits
      std::uint32_t generation = 0;  // occupied iff == generation_
    };
    std::vector<std::uint64_t> residues_;  // [id] = residue label
    std::vector<Slot> slots_;
    unsigned shift_ = 64;  // 64 - log2(slots_.size())
    std::uint32_t generation_ = 0;
  };

  /// Number of distinct values over both lists.
  std::size_t distinct() const { return words_.size(); }

  /// Whether the Claim 1 event happens for the prime (any p >= 2).
  bool HasCollision(std::uint64_t p, Scratch& scratch) const;

 private:
  /// Labels every distinct value by its residue class mod p.
  void LabelResidues(std::uint64_t p,
                     std::vector<std::uint64_t>& out) const;

  std::vector<std::uint64_t> words_;  // [id] = the value, if <= 64 bits
  std::vector<std::pair<std::uint32_t, BitString>> long_values_;
  std::vector<std::uint8_t> lists_;   // [id] = 1: in first, 2: second, 3
};

}  // namespace rstlab::fingerprint

#endif  // RSTLAB_FINGERPRINT_COLLISION_H_
