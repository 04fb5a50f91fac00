#ifndef RSTLAB_FINGERPRINT_COLLISION_H_
#define RSTLAB_FINGERPRINT_COLLISION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitstring.h"

namespace rstlab::fingerprint {

/// The Claim 1 event for one prime p, decided from precomputed
/// residues: is there a pair (i, j) with first[i] = second[j] (mod p)
/// but first[i] != second[j]?
///
/// A flat open-addressed table keyed by residue keeps, per residue of
/// the second list, one representative index and whether two DISTINCT
/// second-list values share that residue. That decides the event
/// exactly: a residue shared by distinct values collides with every
/// first-list value mapping to it (it can equal at most one of them),
/// and a residue held by one distinct value collides iff that value
/// differs from the first-list value. The table keeps its buffers
/// between calls, so one instance serves every prime of a lane group.
class ResidueCollisionTable {
 public:
  /// `first_residues[i * stride]` is first[i] mod p and
  /// `second_residues[j * stride]` is second[j] mod p; a stride above 1
  /// reads one lane of lane-interleaved residues.
  bool HasCollision(const std::vector<BitString>& first,
                    const std::uint64_t* first_residues,
                    const std::vector<BitString>& second,
                    const std::uint64_t* second_residues,
                    std::size_t stride);

 private:
  struct Slot {
    std::uint64_t residue = 0;
    std::size_t representative = 0;  // an index into the second list
    std::uint32_t generation = 0;    // occupied iff == generation_
    bool mixed = false;  // distinct second-list values share the residue
  };

  /// The slot holding `residue` in the current generation, or the empty
  /// slot where it belongs.
  Slot& Probe(std::uint64_t residue);

  std::vector<Slot> slots_;
  unsigned shift_ = 64;  // 64 - log2(slots_.size())
  std::uint32_t generation_ = 0;
};

}  // namespace rstlab::fingerprint

#endif  // RSTLAB_FINGERPRINT_COLLISION_H_
