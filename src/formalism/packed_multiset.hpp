// Packed multisets: one 64-bit word holding a 4-bit count per label.
//
// A multiset over labels 0..15 in which no label occurs more than 15 times
// fits in one word, label l's multiplicity in bits [4l, 4l+4). Adding a
// label is one integer add, equality is word equality, and hashing is one
// multiply. Every configuration of a constraint whose labels are < 16 and
// whose degree is <= 15 packs this way, and so does every sub-multiset of
// one (the counts only shrink); such a constraint is *packable*. The hot
// loops of round elimination and of the relaxation searches work on packed
// words whenever the constraint they query is packable, and on
// Configurations otherwise.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/formalism/configuration.hpp"
#include "src/formalism/label.hpp"

namespace slocal {

using PackedMultiset = std::uint64_t;

namespace packed {

/// Labels below kLabels pack, in multisets of at most kMaxCount elements
/// (so no 4-bit count can overflow into the next label's).
inline constexpr std::size_t kLabels = 16;
inline constexpr std::size_t kMaxCount = 15;

/// The one-element multiset {l}; precondition l < kLabels.
constexpr PackedMultiset unit(Label l) { return PackedMultiset{1} << (4 * l); }

/// True if `c` packs: every label < kLabels and size <= kMaxCount.
inline bool fits(const Configuration& c) {
  if (c.size() > kMaxCount) return false;
  for (const Label l : c.labels()) {
    if (l >= kLabels) return false;
  }
  return true;
}

/// Precondition: fits(c).
inline PackedMultiset pack(const Configuration& c) {
  assert(fits(c));
  PackedMultiset key = 0;
  for (const Label l : c.labels()) key += unit(l);
  return key;
}

}  // namespace packed

/// Open-addressing hash set of packed multisets (linear probing, load at
/// most 1/2). A PackedSet is built once from a key list and then only read,
/// so any number of threads may probe it concurrently.
class PackedSet {
 public:
  PackedSet() { reset(16); }
  explicit PackedSet(const std::vector<PackedMultiset>& keys) {
    std::size_t capacity = 16;
    while (capacity < 2 * keys.size()) capacity *= 2;
    reset(capacity);
    for (const PackedMultiset k : keys) insert(k);
  }

  bool contains(PackedMultiset key) const {
    if (key == kEmpty) return has_empty_;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  std::size_t size() const { return size_; }

 private:
  friend class PackedScratchSet;
  // The empty multiset is word 0, so 0 marks a free slot and the empty
  // multiset itself is kept in a flag.
  static constexpr PackedMultiset kEmpty = 0;

  void reset(std::size_t capacity) {
    slots_.assign(capacity, kEmpty);
    mask_ = capacity - 1;
    size_ = 0;
    has_empty_ = false;
  }

  std::size_t home(PackedMultiset key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask_;
  }

  /// Returns false if `key` was already present. Needs a free slot.
  bool insert(PackedMultiset key) {
    if (key == kEmpty) {
      if (has_empty_) return false;
      has_empty_ = true;
      ++size_;
      return true;
    }
    std::size_t i = home(key);
    for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  std::vector<PackedMultiset> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  bool has_empty_ = false;
};

/// A reusable insert-only set for deduplicating many small batches: clear()
/// forgets the members but keeps the table, so it allocates only while the
/// largest batch grows.
class PackedScratchSet {
 public:
  /// Returns true if `key` was not yet a member.
  bool insert(PackedMultiset key) {
    if (2 * (members_.size() + 1) > set_.slots_.size()) {
      set_.reset(2 * set_.slots_.size());
      for (const PackedMultiset k : members_) set_.insert(k);
    }
    if (!set_.insert(key)) return false;
    members_.push_back(key);
    return true;
  }

  /// Frees exactly the slots the members occupy. The probe for a member
  /// skips slots already freed, so the order of erasure does not matter.
  void clear() {
    for (const PackedMultiset k : members_) {
      if (k == PackedSet::kEmpty) continue;
      std::size_t i = set_.home(k);
      while (set_.slots_[i] != k) i = (i + 1) & set_.mask_;
      set_.slots_[i] = PackedSet::kEmpty;
    }
    members_.clear();
    set_.size_ = 0;
    set_.has_empty_ = false;
  }

 private:
  PackedSet set_;
  std::vector<PackedMultiset> members_;
};

}  // namespace slocal
