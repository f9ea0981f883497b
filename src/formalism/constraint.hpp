// A constraint: a set of same-size configurations (C_W or C_B, Section 2).
//
// Supports condensed configurations ([AB][CD]E regular-expression style):
// a vector of per-position alternative sets expands to the product set.
// Also provides the queries the solvers need: exact membership and
// "is this partial multiset extendable to a member?".
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/formalism/configuration.hpp"
#include "src/formalism/label.hpp"
#include "src/formalism/packed_multiset.hpp"

namespace slocal {

class Constraint {
 public:
  Constraint() = default;
  explicit Constraint(std::size_t degree) : degree_(degree) {}

  std::size_t degree() const { return degree_; }
  std::size_t size() const { return configs_.size(); }
  bool empty() const { return configs_.empty(); }

  /// Adds a configuration; must match degree(). Returns false on duplicates.
  bool add(Configuration c);

  /// Adds every expansion of a condensed configuration: position i may take
  /// any label in alternatives[i]. alternatives.size() must equal degree().
  /// Returns the number of configurations that were NOT already present —
  /// 0 means the line was entirely redundant (the parser uses this to
  /// reject duplicate configurations).
  std::size_t add_condensed(const std::vector<std::vector<Label>>& alternatives);

  bool contains(const Configuration& c) const { return configs_.contains(c); }

  /// True if some member of the constraint has `partial` as a sub-multiset.
  /// This is the per-node pruning test used by the backtracking solver.
  /// O(|members| * degree) by default; O(1) expected after
  /// build_extension_index(). At full degree it is exact membership.
  bool extendable(const Configuration& partial) const;

  /// The same query on a packed multiset, for the hot loops.
  /// Precondition: packed_index_built().
  bool extendable(PackedMultiset partial) const {
    assert(packed_index_ != nullptr);
    return packed_index_->contains(partial);
  }

  /// Builds (idempotently) a hashed set of every sub-multiset of every
  /// member, so that extendable() becomes a single hash lookup. The round
  /// elimination DFS re-tests the same canonical prefixes across branches,
  /// which this memoizes wholesale. A packable constraint (every label < 16,
  /// degree <= 15; see packed_multiset.hpp) gets a flat PackedSet, any other
  /// a set of Configurations. The index is dropped whenever the constraint
  /// is mutated; building is skipped (returns false) when the projected
  /// entry count exceeds `max_entries`, leaving the linear-scan fallback in
  /// place. Reading the index from many threads is safe as long as no
  /// thread mutates or (re)builds the constraint concurrently: build it
  /// before fanning out.
  bool build_extension_index(std::size_t max_entries = std::size_t{1} << 22) const;

  bool extension_index_built() const {
    return packed_index_ != nullptr || extension_index_ != nullptr;
  }

  /// True when the index is built and packed, i.e. extendable(PackedMultiset)
  /// may be called.
  bool packed_index_built() const { return packed_index_ != nullptr; }

  /// Number of memoized prefixes (0 when no index is built).
  std::size_t extension_index_size() const {
    if (packed_index_) return packed_index_->size();
    return extension_index_ ? extension_index_->size() : 0;
  }

  /// All members, in unspecified but deterministic-per-build order.
  const std::unordered_set<Configuration>& members() const { return configs_; }

  /// Members sorted lexicographically (stable order for printing/tests).
  std::vector<Configuration> sorted_members() const;

  /// Set of labels that occur in at least one configuration.
  std::vector<Label> used_labels() const;

  std::string to_string(const LabelRegistry& reg) const;

  bool operator==(const Constraint& other) const {
    return degree_ == other.degree_ && configs_ == other.configs_;
  }

 private:
  std::size_t degree_ = 0;
  std::unordered_set<Configuration> configs_;
  /// Memo for extendable(): every sub-multiset of every member, packed when
  /// the constraint is packable (at most one of the two is set). Mutable
  /// because it is a cache of configs_, rebuilt on demand after mutation.
  mutable std::shared_ptr<const PackedSet> packed_index_;
  mutable std::shared_ptr<const std::unordered_set<Configuration>> extension_index_;

  void drop_index() {
    packed_index_.reset();
    extension_index_.reset();
  }
};

}  // namespace slocal
