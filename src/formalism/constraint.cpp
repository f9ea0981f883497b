#include "src/formalism/constraint.hpp"

#include <algorithm>
#include <cassert>

namespace slocal {

bool Constraint::add(Configuration c) {
  assert(c.size() == degree_);
  drop_index();
  return configs_.insert(std::move(c)).second;
}

std::size_t Constraint::add_condensed(const std::vector<std::vector<Label>>& alternatives) {
  assert(alternatives.size() == degree_);
  drop_index();
  if (alternatives.empty()) {
    return add(Configuration{}) ? 1 : 0;
  }
  for (const auto& a : alternatives) {
    if (a.empty()) return 0;  // empty alternative set: empty product
  }
  // Positions with identical alternative sets are interchangeable in a
  // multiset: group them and enumerate non-decreasing choices per group.
  // This makes the expansion linear in the number of DISTINCT resulting
  // configurations (e.g. [A B]^50 expands to 51 configurations, not 2^50
  // tuples).
  std::vector<std::vector<Label>> groups;  // canonical alternative sets
  std::vector<std::size_t> multiplicity;
  for (auto a : alternatives) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    const auto it = std::find(groups.begin(), groups.end(), a);
    if (it == groups.end()) {
      groups.push_back(std::move(a));
      multiplicity.push_back(1);
    } else {
      ++multiplicity[static_cast<std::size_t>(it - groups.begin())];
    }
  }
  std::vector<Label> current;
  current.reserve(degree_);
  std::size_t inserted = 0;
  // DFS over groups; within a group choose a non-decreasing index sequence.
  auto expand = [&](auto&& self, std::size_t group, std::size_t slot,
                    std::size_t min_index) -> void {
    if (group == groups.size()) {
      if (configs_.insert(Configuration(current)).second) ++inserted;
      return;
    }
    if (slot == multiplicity[group]) {
      self(self, group + 1, 0, 0);
      return;
    }
    for (std::size_t i = min_index; i < groups[group].size(); ++i) {
      current.push_back(groups[group][i]);
      self(self, group, slot + 1, i);
      current.pop_back();
    }
  };
  expand(expand, 0, 0, 0);
  return inserted;
}

bool Constraint::extendable(const Configuration& partial) const {
  if (partial.size() > degree_) return false;
  if (packed_index_) {
    // A label >= 16 occurs in no member of a packable constraint.
    return packed::fits(partial) && packed_index_->contains(packed::pack(partial));
  }
  if (extension_index_) return extension_index_->contains(partial);
  return std::any_of(configs_.begin(), configs_.end(), [&](const Configuration& c) {
    return partial.submultiset_of(c);
  });
}

namespace {

/// (label, multiplicity) runs of a canonical (sorted) configuration.
std::vector<std::pair<Label, std::size_t>> label_runs(const Configuration& c) {
  std::vector<std::pair<Label, std::size_t>> runs;
  const auto labels = c.labels();
  for (std::size_t i = 0; i < labels.size();) {
    std::size_t j = i;
    while (j < labels.size() && labels[j] == labels[i]) ++j;
    runs.emplace_back(labels[i], j - i);
    i = j;
  }
  return runs;
}

}  // namespace

bool Constraint::build_extension_index(std::size_t max_entries) const {
  if (extension_index_built()) return true;

  // Projected size (an upper bound: sub-multisets shared between members
  // dedupe): for a member with label multiplicities m_1..m_k there are
  // prod(m_i + 1) sub-multisets.
  std::uint64_t projected = 0;
  bool packable = degree_ <= packed::kMaxCount;
  for (const auto& c : configs_) {
    packable = packable && packed::fits(c);
    std::uint64_t per_member = 1;
    for (const auto& [label, count] : label_runs(c)) {
      per_member *= static_cast<std::uint64_t>(count) + 1;
    }
    projected += per_member;
    if (projected > max_entries) return false;
  }

  if (packable) {
    std::vector<PackedMultiset> keys;
    keys.reserve(static_cast<std::size_t>(projected));
    for (const auto& c : configs_) {
      const auto runs = label_runs(c);
      auto emit = [&](auto&& self, std::size_t run, PackedMultiset key) -> void {
        if (run == runs.size()) {
          keys.push_back(key);
          return;
        }
        for (std::size_t k = 0; k <= runs[run].second; ++k) {
          self(self, run + 1, key + k * packed::unit(runs[run].first));
        }
      };
      emit(emit, 0, 0);
    }
    packed_index_ = std::make_shared<const PackedSet>(keys);
    return true;
  }

  auto index = std::make_unique<std::unordered_set<Configuration>>();
  index->reserve(static_cast<std::size_t>(projected));
  std::vector<Label> chosen;
  chosen.reserve(degree_);
  for (const auto& c : configs_) {
    // Labels are sorted, so emitting counts in run order keeps `chosen`
    // canonical.
    const auto runs = label_runs(c);
    auto emit = [&](auto&& self, std::size_t run) -> void {
      if (run == runs.size()) {
        index->insert(Configuration(chosen));
        return;
      }
      self(self, run + 1);  // take 0 copies
      for (std::size_t k = 1; k <= runs[run].second; ++k) {
        chosen.push_back(runs[run].first);
        self(self, run + 1);
      }
      chosen.resize(chosen.size() - runs[run].second);
    };
    emit(emit, 0);
  }
  extension_index_ = std::move(index);
  return true;
}

std::vector<Configuration> Constraint::sorted_members() const {
  std::vector<Configuration> out(configs_.begin(), configs_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Label> Constraint::used_labels() const {
  std::vector<bool> seen(256, false);
  for (const auto& c : configs_) {
    for (const Label l : c.labels()) seen[l] = true;
  }
  std::vector<Label> out;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(static_cast<Label>(i));
  }
  return out;
}

std::string Constraint::to_string(const LabelRegistry& reg) const {
  std::string out;
  for (const auto& c : sorted_members()) {
    out += c.to_string(reg);
    out += '\n';
  }
  return out;
}

}  // namespace slocal
