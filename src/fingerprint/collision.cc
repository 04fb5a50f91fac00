#include "fingerprint/collision.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>

#include "fingerprint/montgomery.h"

namespace rstlab::fingerprint {

namespace {

/// Which lists hold a value, as bits.
constexpr std::uint8_t kFirst = 1;
constexpr std::uint8_t kSecond = 2;

}  // namespace

Claim1Collisions::Claim1Collisions(const problems::Instance& instance) {
  const std::size_t m_first = instance.first.size();
  const std::size_t total = m_first + instance.second.size();
  assert(total <= std::numeric_limits<std::uint32_t>::max());
  const auto value_at = [&](std::size_t i) -> const BitString& {
    return i < m_first ? instance.first[i] : instance.second[i - m_first];
  };
  // Two values of at most 64 bits are equal iff their lengths and
  // numbers are, so those sort as plain (number, length) keys; longer
  // values sort under BitString's own order.
  struct ShortKey {
    std::uint64_t number;
    std::uint64_t length;
    std::uint32_t index;
  };
  std::vector<ShortKey> short_keys;
  std::vector<std::uint32_t> long_order;
  short_keys.reserve(total);
  for (std::uint32_t i = 0; i < total; ++i) {
    const BitString& value = value_at(i);
    if (value.size() <= 64) {
      short_keys.push_back({value.ToUint64(), value.size(), i});
    } else {
      long_order.push_back(i);
    }
  }
  std::sort(short_keys.begin(), short_keys.end(),
            [](const ShortKey& a, const ShortKey& b) {
              return a.number != b.number ? a.number < b.number
                                          : a.length < b.length;
            });
  std::sort(long_order.begin(), long_order.end(),
            [&value_at](std::uint32_t a, std::uint32_t b) {
              return value_at(a) < value_at(b);
            });
  // Equal values are adjacent after the sorts: one id per run.
  const auto add = [this, m_first](bool new_value, std::uint32_t index) {
    if (new_value) lists_.push_back(0);
    lists_.back() |= index < m_first ? kFirst : kSecond;
    return new_value;
  };
  for (std::size_t rank = 0; rank < short_keys.size(); ++rank) {
    const ShortKey& key = short_keys[rank];
    const bool new_value = rank == 0 ||
                           key.number != short_keys[rank - 1].number ||
                           key.length != short_keys[rank - 1].length;
    if (add(new_value, key.index)) words_.push_back(key.number);
  }
  for (std::size_t rank = 0; rank < long_order.size(); ++rank) {
    const BitString& value = value_at(long_order[rank]);
    const bool new_value =
        rank == 0 || value != value_at(long_order[rank - 1]);
    if (add(new_value, long_order[rank])) {
      long_values_.emplace_back(static_cast<std::uint32_t>(words_.size()),
                                value);
      words_.push_back(0);
    }
  }
}

void Claim1Collisions::LabelResidues(std::uint64_t p,
                                     std::vector<std::uint64_t>& out) const {
  out.resize(words_.size());
  if (p % 2 == 0) {
    // p = 2, the one even prime, has no Montgomery form.
    for (std::size_t id = 0; id < words_.size(); ++id) {
      out[id] = words_[id] % p;
    }
    for (const auto& [id, value] : long_values_) out[id] = value.ModUint64(p);
    return;
  }
  // w * R^-1 mod p is a bijective relabelling of w mod p, and one
  // Montgomery reduction computes it from the raw word.
  const Montgomery mont(p);
  for (std::size_t id = 0; id < words_.size(); ++id) {
    out[id] = mont.Reduce(words_[id]);
  }
  for (const auto& [id, value] : long_values_) {
    out[id] = mont.Reduce(value.ModUint64(p));
  }
}

bool Claim1Collisions::HasCollision(std::uint64_t p, Scratch& scratch) const {
  LabelResidues(p, scratch.residues_);
  const std::vector<std::uint64_t>& residues = scratch.residues_;

  std::vector<Scratch::Slot>& slots = scratch.slots_;
  const std::size_t wanted =
      std::max<std::size_t>(2, std::bit_ceil(2 * lists_.size()));
  if (slots.size() < wanted) {
    slots.assign(wanted, Scratch::Slot{});
    scratch.shift_ = 64 - static_cast<unsigned>(std::countr_zero(wanted));
    scratch.generation_ = 0;
  }
  if (scratch.generation_ == std::numeric_limits<std::uint32_t>::max()) {
    slots.assign(slots.size(), Scratch::Slot{});
    scratch.generation_ = 0;
  }
  const std::uint32_t generation = ++scratch.generation_;  // empties all
  const unsigned shift = scratch.shift_;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t id = 0; id < lists_.size(); ++id) {
    // Fibonacci hashing onto the power-of-two table, then linear
    // probing; the table is at most half full, so probes stay short.
    const std::uint64_t residue = residues[id];
    std::size_t i =
        static_cast<std::size_t>((residue * 0x9E3779B97F4A7C15ULL) >> shift);
    while (slots[i].generation == generation &&
           slots[i].residue != residue) {
      i = (i + 1) & mask;
    }
    Scratch::Slot& slot = slots[i];
    const std::uint32_t lists = lists_[id];
    if (slot.generation != generation) {
      slot = Scratch::Slot{residue, lists, generation};
      continue;
    }
    // A different value with the same residue: the pair is a Claim 1
    // collision iff one side is in the first list and the other in the
    // second.
    const std::uint32_t other_lists =
        ((lists & kFirst) != 0 ? kSecond : 0) |
        ((lists & kSecond) != 0 ? kFirst : 0);
    if ((slot.lists & other_lists) != 0) return true;
    slot.lists |= lists;
  }
  return false;
}

}  // namespace rstlab::fingerprint
