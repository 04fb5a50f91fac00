#include "fingerprint/collision.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace rstlab::fingerprint {

ResidueCollisionTable::Slot& ResidueCollisionTable::Probe(
    std::uint64_t residue) {
  // Fibonacci hashing onto a power-of-two table, then linear probing;
  // the table is at most half full, so probes stay short.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (residue * 0x9E3779B97F4A7C15ULL) >> shift_);
  while (slots_[i].generation == generation_ &&
         slots_[i].residue != residue) {
    i = (i + 1) & mask;
  }
  return slots_[i];
}

bool ResidueCollisionTable::HasCollision(
    const std::vector<BitString>& first, const std::uint64_t* first_residues,
    const std::vector<BitString>& second,
    const std::uint64_t* second_residues, std::size_t stride) {
  const std::size_t wanted =
      std::max<std::size_t>(2, std::bit_ceil(2 * second.size()));
  if (slots_.size() < wanted) {
    slots_.assign(wanted, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(wanted));
    generation_ = 0;
  }
  if (generation_ == std::numeric_limits<std::uint32_t>::max()) {
    slots_.assign(slots_.size(), Slot{});
    generation_ = 0;
  }
  ++generation_;  // empties every slot at once

  for (std::size_t j = 0; j < second.size(); ++j) {
    Slot& slot = Probe(second_residues[j * stride]);
    if (slot.generation != generation_) {
      slot = Slot{second_residues[j * stride], j, generation_, false};
    } else if (!slot.mixed && second[j] != second[slot.representative]) {
      slot.mixed = true;
    }
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    const Slot& slot = Probe(first_residues[i * stride]);
    if (slot.generation != generation_) continue;
    if (slot.mixed || first[i] != second[slot.representative]) return true;
  }
  return false;
}

}  // namespace rstlab::fingerprint
