#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/formalism/packed_multiset.hpp"
#include "src/formalism/parser.hpp"
#include "src/formalism/relaxation.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/round_elimination.hpp"

namespace slocal {
namespace {

TEST(Relaxation, IdentityIsARelaxation) {
  const Problem p = make_matching_problem(4, 1, 1);
  const auto map = relaxation_label_map(p, p);
  ASSERT_TRUE(map.has_value());
  for (std::size_t l = 0; l < p.alphabet_size(); ++l) {
    EXPECT_LT((*map)[l], p.alphabet_size());
  }
}

TEST(Relaxation, Observation43MatchingParameters) {
  // Observation 4.3: Π_Δ(x', y') is a relaxation of Π_Δ(x, y) for
  // x' >= x, y' >= y.
  const std::size_t delta = 5;
  const Problem base = make_matching_problem(delta, 0, 1);
  for (const auto [x2, y2] : {std::pair<std::size_t, std::size_t>{1, 1},
                              {0, 2},
                              {1, 2},
                              {2, 1},
                              {2, 2}}) {
    const Problem relaxed = make_matching_problem(delta, x2, y2);
    EXPECT_TRUE(relaxation_label_map(base, relaxed).has_value() ||
                find_relaxation(base, relaxed).has_value())
        << "x'=" << x2 << " y'=" << y2;
  }
}

TEST(Relaxation, TighterParametersAreNotARelaxation) {
  // The converse direction must fail: Π_Δ(0,1) is strictly harder.
  const std::size_t delta = 4;
  const Problem tight = make_matching_problem(delta, 0, 1);
  const Problem loose = make_matching_problem(delta, 2, 1);
  bool exhausted = false;
  EXPECT_FALSE(find_relaxation(loose, tight, 2'000'000, &exhausted).has_value());
  EXPECT_FALSE(exhausted);
}

TEST(Relaxation, DegreeMismatchRejected) {
  const Problem a = make_matching_problem(4, 0, 1);
  const Problem b = make_matching_problem(5, 0, 1);
  EXPECT_FALSE(relaxation_label_map(a, b).has_value());
  EXPECT_FALSE(find_relaxation(a, b).has_value());
}

TEST(Relaxation, ColoringRelaxesToMoreColors) {
  // c-coloring relaxes to (c+1)-coloring (embed the palette).
  const Problem c3 = make_proper_coloring_problem(3, 3);
  const Problem c4 = make_proper_coloring_problem(3, 4);
  EXPECT_TRUE(relaxation_label_map(c3, c4).has_value());
  EXPECT_FALSE(relaxation_label_map(c4, c3).has_value());
  bool exhausted = false;
  EXPECT_FALSE(find_relaxation(c4, c3, 2'000'000, &exhausted).has_value());
  EXPECT_FALSE(exhausted);
}

TEST(Relaxation, WitnessCheckerAcceptsHandBuiltWitness) {
  // Map maximal matching onto itself with the identity config mapping.
  const Problem mm = make_maximal_matching_problem(3);
  ConfigMapping identity;
  for (const auto& c : mm.white().members()) {
    identity[c] = std::vector<Label>(c.labels().begin(), c.labels().end());
  }
  EXPECT_TRUE(check_relaxation_witness(mm, mm, identity));
}

TEST(Relaxation, WitnessCheckerRejectsBadImage) {
  const Problem mm = make_maximal_matching_problem(3);
  ConfigMapping bad;
  const Label m = *mm.registry().find("M");
  for (const auto& c : mm.white().members()) {
    bad[c] = std::vector<Label>(c.size(), m);  // M^Δ is not a white config
  }
  EXPECT_FALSE(check_relaxation_witness(mm, mm, bad));
}

TEST(Relaxation, WitnessCheckerRejectsMissingEntries) {
  const Problem mm = make_maximal_matching_problem(3);
  const ConfigMapping empty;
  EXPECT_FALSE(check_relaxation_witness(mm, mm, empty));
}

TEST(Relaxation, ExactSearchAgreesWithLabelMapOnCorpus) {
  // On a small corpus, whenever a per-label witness exists the exact
  // configuration-mapping search must also find one.
  const std::vector<std::pair<Problem, Problem>> corpus = {
      {make_matching_problem(4, 0, 1), make_matching_problem(4, 1, 1)},
      {make_matching_problem(4, 0, 1), make_matching_problem(4, 2, 1)},
      {make_proper_coloring_problem(3, 2), make_proper_coloring_problem(3, 4)},
      {make_maximal_matching_problem(3), make_maximal_matching_problem(3)},
  };
  for (const auto& [from, to] : corpus) {
    if (relaxation_label_map(from, to).has_value()) {
      EXPECT_TRUE(find_relaxation(from, to).has_value())
          << from.name() << " -> " << to.name();
    }
  }
}

// ------------------------------------------- packed kernel vs fallback
//
// The hot loops run on packed multisets when the queried constraint packs
// (labels < 16, degree <= 15) and on Configurations otherwise. Shifting
// every label up by 16 gives an isomorphic input on which nothing packs;
// the two paths must agree on every verdict, and on every work counter
// wherever the shift leaves the search space unchanged.

constexpr Label kShift = 16;

Configuration shifted(const Configuration& c) {
  std::vector<Label> labels;
  for (const Label l : c.labels()) labels.push_back(static_cast<Label>(l + kShift));
  return Configuration(std::move(labels));
}

Constraint shifted(const Constraint& c) {
  Constraint out(c.degree());
  for (const Configuration& m : c.sorted_members()) out.add(shifted(m));
  return out;
}

/// `p` with 16 unused labels in front of its alphabet: the same problem up
/// to renaming, but with every used label >= 16.
Problem pad_front(const Problem& p) {
  LabelRegistry reg;
  for (Label i = 0; i < kShift; ++i) reg.intern("pad" + std::to_string(i));
  for (Label l = 0; l < p.alphabet_size(); ++l) reg.intern(p.registry().name(l));
  return Problem(p.name(), std::move(reg), shifted(p.white()), shifted(p.black()));
}

TEST(PackedFallback, ExtendableAgreesOnEveryMultiset) {
  Constraint c(4);
  c.add_condensed({{0, 1}, {0, 1}, {2, 3}, {2}});
  c.add(Configuration{0, 0, 0, 0});
  c.add(Configuration{1, 3, 4, 4});
  const Constraint scan = c;  // no index: the linear scan
  const Constraint wide = shifted(c);
  ASSERT_TRUE(c.build_extension_index());
  ASSERT_TRUE(wide.build_extension_index());
  EXPECT_TRUE(c.packed_index_built());
  EXPECT_FALSE(wide.packed_index_built());
  EXPECT_EQ(c.extension_index_size(), wide.extension_index_size());

  // Every multiset of size <= 5 over labels {0..5} (5 is unused).
  std::vector<Label> pick;
  auto sweep = [&](auto&& self, Label min_label) -> void {
    const Configuration m(pick);
    const bool expected = scan.extendable(m);
    EXPECT_EQ(c.extendable(m), expected) << "size " << pick.size();
    EXPECT_EQ(c.extendable(packed::pack(m)), expected) << "size " << pick.size();
    EXPECT_EQ(wide.extendable(shifted(m)), expected) << "size " << pick.size();
    if (pick.size() == 5) return;
    for (Label l = min_label; l < 6; ++l) {
      pick.push_back(l);
      self(self, l);
      pick.pop_back();
    }
  };
  sweep(sweep, 0);
  // A label >= 16 occurs in no member of a packed constraint.
  EXPECT_FALSE(c.extendable(Configuration{0, 20}));
}

TEST(PackedFallback, DegreeSixteenConstraintKeepsTheConfigurationIndex) {
  Constraint c(16);
  std::vector<Label> labels(16, 0);
  labels[15] = 1;
  c.add(Configuration(labels));
  ASSERT_TRUE(c.build_extension_index());
  EXPECT_FALSE(c.packed_index_built());
  EXPECT_EQ(c.extension_index_size(), 16u * 2u);  // 0..15 zeros, 0..1 ones
  EXPECT_TRUE(c.extendable(Configuration(std::vector<Label>(15, 0))));
  EXPECT_TRUE(c.extendable(Configuration(labels)));
  EXPECT_FALSE(c.extendable(Configuration{1, 1}));
}

/// Relaxation pairs covering yes and no answers of both searches; the first
/// is a Lemma 4.5 step where the label map fails and the witness succeeds.
std::vector<std::pair<Problem, Problem>> relaxation_corpus() {
  const auto re = round_eliminate(make_matching_problem(4, 0, 1));
  EXPECT_TRUE(re.has_value());
  return {
      {*re, make_matching_problem(4, 1, 1)},
      {make_matching_problem(4, 0, 1), make_matching_problem(4, 1, 1)},
      {make_matching_problem(4, 1, 1), make_matching_problem(4, 0, 1)},
      {make_proper_coloring_problem(3, 2), make_proper_coloring_problem(3, 4)},
      {make_proper_coloring_problem(3, 4), make_proper_coloring_problem(3, 2)},
      {make_maximal_matching_problem(3), make_maximal_matching_problem(3)},
  };
}

TEST(PackedFallback, LabelMapSearchAgrees) {
  for (const auto& [from, to] : relaxation_corpus()) {
    const Problem wide = pad_front(to);
    for (const std::size_t threads : {1u, 4u}) {
      RelaxationOptions options;
      options.node_budget = 0;
      options.threads = threads;
      const LabelMapResult packed = find_relaxation_label_map(from, to, options);
      const LabelMapResult fallback = find_relaxation_label_map(from, wide, options);
      EXPECT_TRUE(to.white().packed_index_built()) << to.name();
      EXPECT_FALSE(wide.white().packed_index_built()) << to.name();
      EXPECT_EQ(packed.verdict, fallback.verdict) << from.name() << " -> " << to.name();
      if (packed.map) EXPECT_TRUE(check_relaxation_label_map(from, to, *packed.map));
      if (fallback.map) EXPECT_TRUE(check_relaxation_label_map(from, wide, *fallback.map));
    }
  }
}

TEST(PackedFallback, WitnessSearchAgrees) {
  std::size_t yes = 0;
  for (const auto& [from, to] : relaxation_corpus()) {
    const Problem wide = pad_front(to);
    for (const std::size_t threads : {1u, 4u}) {
      RelaxationOptions options;
      options.node_budget = threads == 1 ? 5'000'000 : 0;
      options.threads = threads;
      const WitnessResult packed = find_relaxation_witness(from, to, options);
      const WitnessResult fallback = find_relaxation_witness(from, wide, options);
      EXPECT_TRUE(to.black().packed_index_built()) << to.name();
      EXPECT_FALSE(wide.black().packed_index_built()) << to.name();
      EXPECT_EQ(packed.verdict, fallback.verdict) << from.name() << " -> " << to.name();
      if (threads == 1) {
        // The shift keeps the candidate order, so the serial searches walk
        // the same tree.
        EXPECT_EQ(packed.nodes, fallback.nodes) << from.name() << " -> " << to.name();
      }
      if (packed.mapping) {
        ++yes;
        EXPECT_TRUE(check_relaxation_witness(from, to, *packed.mapping));
      }
      if (fallback.mapping) EXPECT_TRUE(check_relaxation_witness(from, wide, *fallback.mapping));
    }
  }
  EXPECT_GT(yes, 0u);
}

TEST(PackedFallback, RoundEliminationCountersMatch) {
  const std::vector<Problem> inputs = {
      make_matching_problem(4, 0, 1), make_matching_problem(5, 1, 1),
      make_sinkless_orientation_problem(3), make_proper_coloring_problem(3, 3)};
  for (const Problem& pi : inputs) {
    const Problem wide = pad_front(pi);
    for (const std::size_t threads : {1u, 4u}) {
      REStats packed_stats;
      REStats fallback_stats;
      REOptions options;
      options.max_alphabet = 2 * kShift;
      options.threads = threads;
      options.stats = &packed_stats;
      const auto packed = round_eliminate(pi, options);
      options.stats = &fallback_stats;
      const auto fallback = round_eliminate(wide, options);
      ASSERT_TRUE(packed.has_value()) << pi.name();
      ASSERT_TRUE(fallback.has_value()) << pi.name();
      EXPECT_TRUE(equivalent_up_to_renaming(*packed, *fallback).has_value()) << pi.name();
      EXPECT_EQ(packed_stats.dfs_nodes, fallback_stats.dfs_nodes) << pi.name();
      EXPECT_EQ(packed_stats.partials_deduped, fallback_stats.partials_deduped) << pi.name();
      EXPECT_EQ(packed_stats.extendable_calls, fallback_stats.extendable_calls) << pi.name();
      EXPECT_EQ(packed_stats.extension_index_entries, fallback_stats.extension_index_entries)
          << pi.name();
      EXPECT_EQ(packed_stats.extension_index_builds, fallback_stats.extension_index_builds)
          << pi.name();
      EXPECT_EQ(packed_stats.configs_enumerated, fallback_stats.configs_enumerated)
          << pi.name();
      EXPECT_EQ(packed_stats.domination_tests, fallback_stats.domination_tests) << pi.name();
      EXPECT_EQ(packed_stats.domination_skipped, fallback_stats.domination_skipped)
          << pi.name();
      EXPECT_EQ(packed_stats.relaxed_multisets, fallback_stats.relaxed_multisets)
          << pi.name();
      EXPECT_EQ(packed_stats.relaxed_witness_hits, fallback_stats.relaxed_witness_hits)
          << pi.name();
      EXPECT_EQ(packed_stats.relaxed_dfs_tests, fallback_stats.relaxed_dfs_tests)
          << pi.name();
    }
  }
}

TEST(PackedFallback, FixedPointsHoldOnBothSidesOfTheDegreeLimit) {
  // Degree 15 packs, degree 16 takes the Configuration path in both
  // half-steps; Lemma 5.4 and the SO' fixed point must hold on both.
  for (const std::size_t delta : {15u, 16u}) {
    REOptions options;
    options.threads = 1;
    EXPECT_TRUE(is_fixed_point(make_coloring_problem(delta, 2), options)) << delta;
    const auto so_prime = round_eliminate(make_sinkless_orientation_problem(delta), options);
    ASSERT_TRUE(so_prime.has_value()) << delta;
    EXPECT_TRUE(is_fixed_point(*so_prime, options)) << delta;
  }
}

}  // namespace
}  // namespace slocal
