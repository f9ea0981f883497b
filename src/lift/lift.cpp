#include "src/lift/lift.hpp"

#include <algorithm>
#include <cassert>

#include "src/util/combinatorics.hpp"

namespace slocal {

namespace {

std::string set_name(SmallBitset set, const LabelRegistry& reg) {
  std::string out = "{";
  bool first = true;
  for (const std::size_t l : set.indices()) {
    if (!first) out += ' ';
    first = false;
    out += reg.name(static_cast<Label>(l));
  }
  out += '}';
  return out;
}

}  // namespace

std::string lift_parameter_error(const Problem& base, std::size_t big_delta,
                                 std::size_t big_r) {
  if (big_delta >= base.white_degree() && big_r >= base.black_degree()) return {};
  return "lift targets must dominate the problem degrees (white " +
         std::to_string(base.white_degree()) + ", black " +
         std::to_string(base.black_degree()) + "; got delta " +
         std::to_string(big_delta) + ", r " + std::to_string(big_r) + ")";
}

LiftedProblem::LiftedProblem(Problem base, std::size_t big_delta, std::size_t big_r)
    : base_(std::move(base)),
      black_diagram_(base_.black(), base_.alphabet_size()),
      big_delta_(big_delta),
      big_r_(big_r) {
  assert(lift_parameter_error(base_, big_delta_, big_r_).empty());
  label_sets_ = black_diagram_.right_closed_sets();
}

std::optional<std::size_t> LiftedProblem::index_of(SmallBitset set) const {
  const auto it = std::lower_bound(label_sets_.begin(), label_sets_.end(), set);
  if (it == label_sets_.end() || *it != set) return std::nullopt;
  return static_cast<std::size_t>(it - label_sets_.begin());
}

bool LiftedProblem::exists_choice(const Constraint& c,
                                  std::span<const SmallBitset> sets) const {
  std::vector<std::vector<std::size_t>> choices;
  choices.reserve(sets.size());
  for (const SmallBitset s : sets) choices.push_back(s.indices());
  bool found = false;
  for_each_choice(choices, [&](const std::vector<std::size_t>& pick) {
    std::vector<Label> labels;
    labels.reserve(pick.size());
    for (const std::size_t l : pick) labels.push_back(static_cast<Label>(l));
    if (c.contains(Configuration(std::move(labels)))) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

bool LiftedProblem::all_choices(const Constraint& c,
                                std::span<const SmallBitset> sets) const {
  std::vector<std::vector<std::size_t>> choices;
  choices.reserve(sets.size());
  for (const SmallBitset s : sets) choices.push_back(s.indices());
  const bool exhaustive =
      for_each_choice(choices, [&](const std::vector<std::size_t>& pick) {
        std::vector<Label> labels;
        labels.reserve(pick.size());
        for (const std::size_t l : pick) labels.push_back(static_cast<Label>(l));
        if (sets.size() == c.degree()) {
          return c.contains(Configuration(std::move(labels)));
        }
        return c.extendable(Configuration(std::move(labels)));
      });
  return exhaustive;
}

bool LiftedProblem::white_ok(std::span<const std::size_t> lifted_labels) const {
  assert(lifted_labels.size() == big_delta_);
  const std::size_t d_prime = base_.white_degree();
  std::vector<SmallBitset> subset(d_prime);
  return for_each_subset(lifted_labels.size(), d_prime,
                         [&](const std::vector<std::size_t>& pick) {
                           for (std::size_t i = 0; i < d_prime; ++i) {
                             subset[i] = label_sets_[lifted_labels[pick[i]]];
                           }
                           return exists_choice(base_.white(), subset);
                         });
}

bool LiftedProblem::black_ok(std::span<const std::size_t> lifted_labels) const {
  assert(lifted_labels.size() == big_r_);
  const std::size_t r_prime = base_.black_degree();
  std::vector<SmallBitset> subset(r_prime);
  return for_each_subset(lifted_labels.size(), r_prime,
                         [&](const std::vector<std::size_t>& pick) {
                           for (std::size_t i = 0; i < r_prime; ++i) {
                             subset[i] = label_sets_[lifted_labels[pick[i]]];
                           }
                           return all_choices(base_.black(), subset);
                         });
}

bool LiftedProblem::white_partial_ok(std::span<const std::size_t> lifted_labels) const {
  const std::size_t d_prime = base_.white_degree();
  if (lifted_labels.size() < d_prime) return true;
  std::vector<SmallBitset> subset(d_prime);
  return for_each_subset(lifted_labels.size(), d_prime,
                         [&](const std::vector<std::size_t>& pick) {
                           for (std::size_t i = 0; i < d_prime; ++i) {
                             subset[i] = label_sets_[lifted_labels[pick[i]]];
                           }
                           return exists_choice(base_.white(), subset);
                         });
}

bool LiftedProblem::black_partial_ok(std::span<const std::size_t> lifted_labels) const {
  const std::size_t r_prime = base_.black_degree();
  const std::size_t check = std::min(lifted_labels.size(), r_prime);
  std::vector<SmallBitset> subset(check);
  return for_each_subset(lifted_labels.size(), check,
                         [&](const std::vector<std::size_t>& pick) {
                           for (std::size_t i = 0; i < check; ++i) {
                             subset[i] = label_sets_[lifted_labels[pick[i]]];
                           }
                           return all_choices(base_.black(), subset);
                         });
}

std::optional<Problem> LiftedProblem::materialize(
    std::uint64_t max_configurations) const {
  const std::size_t m = label_sets_.size();
  if (multiset_count(m, big_delta_) > max_configurations ||
      multiset_count(m, big_r_) > max_configurations) {
    return std::nullopt;
  }
  LabelRegistry reg;
  for (const SmallBitset s : label_sets_) reg.intern(set_name(s, base_.registry()));

  Constraint white(big_delta_);
  for_each_multiset(m, big_delta_, [&](const std::vector<std::size_t>& pick) {
    if (white_ok(pick)) {
      std::vector<Label> labels;
      labels.reserve(pick.size());
      for (const std::size_t p : pick) labels.push_back(static_cast<Label>(p));
      white.add(Configuration(std::move(labels)));
    }
    return true;
  });
  Constraint black(big_r_);
  for_each_multiset(m, big_r_, [&](const std::vector<std::size_t>& pick) {
    if (black_ok(pick)) {
      std::vector<Label> labels;
      labels.reserve(pick.size());
      for (const std::size_t p : pick) labels.push_back(static_cast<Label>(p));
      black.add(Configuration(std::move(labels)));
    }
    return true;
  });
  return Problem("lift_{" + std::to_string(big_delta_) + "," + std::to_string(big_r_) +
                     "}(" + base_.name() + ")",
                 std::move(reg), std::move(white), std::move(black));
}

}  // namespace slocal
