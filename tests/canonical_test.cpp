// Property tests for the canonicalization subsystem (Section: canonical
// forms up to label renaming).
//
// The RE cache's soundness rests on exactly one claim: renaming-equivalent
// problems — and only those — canonicalize to structurally identical
// problems with equal fingerprints. This suite checks that claim on 500+
// seeded random problems under random label permutations, round-trips the
// returned permutation, and cross-checks `equivalent_up_to_renaming`
// (canonical-form based) against the legacy brute-force bijection search on
// both positive and negative pairs (negatives by mutating one
// configuration). It also pins the `drop_unused_labels` fix: dropping must
// commute with renaming.
#include "src/formalism/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/formalism/problem.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/rng.hpp"
#include "tests/diff_oracle.hpp"

namespace slocal {
namespace {

std::vector<Label> random_permutation(std::size_t n, Rng& rng) {
  std::vector<Label> perm(n);
  std::iota(perm.begin(), perm.end(), Label{0});
  rng.shuffle(perm);
  return perm;
}

/// Does `map` (a-label -> b-label) really carry a's constraints onto b's?
bool is_witness(const Problem& a, const Problem& b, const std::vector<Label>& map) {
  if (map.size() != a.alphabet_size()) return false;
  std::vector<bool> seen(map.size(), false);
  for (const Label l : map) {
    if (l >= map.size() || seen[l]) return false;
    seen[l] = true;
  }
  return same_constraints(apply_renaming(a, map), b);
}

/// Replaces one white configuration with a multiset not currently present
/// (nullopt when the white constraint is already complete — the caller then
/// falls back to just dropping a configuration, which changes |W|).
Problem mutate_one_configuration(const Problem& p, Rng& rng) {
  const std::vector<Configuration> members = p.white().sorted_members();
  const Configuration& victim =
      members[static_cast<std::size_t>(rng.below(members.size()))];
  Constraint white(p.white_degree());
  for (const Configuration& c : members) {
    if (!(c == victim)) white.add(c);
  }
  // First absent multiset, if any; a complete constraint degrades to a drop.
  for_each_multiset(p.alphabet_size(), p.white_degree(),
                    [&](const std::vector<std::size_t>& pick) {
                      std::vector<Label> labels;
                      labels.reserve(pick.size());
                      for (const std::size_t q : pick) {
                        labels.push_back(static_cast<Label>(q));
                      }
                      Configuration candidate(std::move(labels));
                      if (!p.white().contains(candidate)) {
                        white.add(std::move(candidate));
                        return false;
                      }
                      return true;
                    });
  return Problem(p.name(), p.registry(), std::move(white), p.black());
}

/// One seeded random problem per call; degrees/alphabets kept small enough
/// that the brute-force oracle stays instant across 500+ instances.
std::optional<Problem> draw_problem(Rng& rng) {
  const std::size_t dw = 2 + static_cast<std::size_t>(rng.below(2));
  const std::size_t db = 2 + static_cast<std::size_t>(rng.below(2));
  const std::size_t alphabet = 2 + static_cast<std::size_t>(rng.below(3));
  return random_problem(dw, db, alphabet, rng);
}

constexpr int kSeeds = 520;  // ISSUE floor is 500

TEST(Canonical, RenamingInvarianceOn500PlusSeededProblems) {
  int checked = 0;
  for (std::uint64_t seed = 1; checked < kSeeds; ++seed) {
    Rng rng(seed);
    const auto p = draw_problem(rng);
    if (!p.has_value()) continue;
    ++checked;

    const CanonicalForm original = canonicalize(*p);
    const std::vector<Label> sigma = random_permutation(p->alphabet_size(), rng);
    const Problem renamed = apply_renaming(*p, sigma);
    const CanonicalForm permuted = canonicalize(renamed);

    ASSERT_EQ(original.fingerprint, permuted.fingerprint) << "seed " << seed;
    // Full structural equality: constraints, synthetic registries, and (via
    // the construction) the preserved problem name.
    ASSERT_EQ(original.problem, permuted.problem) << "seed " << seed;
  }
  EXPECT_GE(checked, 500);
}

TEST(Canonical, ReturnedPermutationRoundTripsOn500PlusSeededProblems) {
  int checked = 0;
  for (std::uint64_t seed = 1; checked < kSeeds; ++seed) {
    Rng rng(seed);
    const auto p = draw_problem(rng);
    if (!p.has_value()) continue;
    ++checked;

    const CanonicalForm cf = canonicalize(*p);
    // perm is a genuine witness from the input onto the canonical problem.
    ASSERT_TRUE(is_witness(*p, cf.problem, cf.perm)) << "seed " << seed;
    // Canonicalization is idempotent: the canonical problem is its own
    // canonical form (identity perm, same fingerprint).
    const CanonicalForm again = canonicalize(cf.problem);
    ASSERT_EQ(again.fingerprint, cf.fingerprint) << "seed " << seed;
    ASSERT_EQ(again.problem, cf.problem) << "seed " << seed;
  }
  EXPECT_GE(checked, 500);
}

TEST(Canonical, AgreesWithBruteForceOracleOnPositivePairs) {
  int checked = 0;
  for (std::uint64_t seed = 1; checked < kSeeds; ++seed) {
    Rng rng(seed);
    const auto p = draw_problem(rng);
    if (!p.has_value()) continue;
    ++checked;

    const std::vector<Label> sigma = random_permutation(p->alphabet_size(), rng);
    const Problem renamed = apply_renaming(*p, sigma);

    const auto canonical = equivalent_up_to_renaming(*p, renamed);
    const auto brute = equivalent_up_to_renaming_bruteforce(*p, renamed);
    ASSERT_TRUE(brute.has_value()) << "seed " << seed;
    ASSERT_TRUE(canonical.has_value()) << "seed " << seed;
    // Witnesses may legitimately differ (automorphisms); each must be valid.
    ASSERT_TRUE(is_witness(*p, renamed, *canonical)) << "seed " << seed;
    ASSERT_TRUE(is_witness(*p, renamed, *brute)) << "seed " << seed;
  }
  EXPECT_GE(checked, 500);
}

TEST(Canonical, AgreesWithBruteForceOracleOnMutatedPairs) {
  int checked = 0;
  int negatives = 0;
  for (std::uint64_t seed = 1; checked < kSeeds; ++seed) {
    Rng rng(seed);
    const auto p = draw_problem(rng);
    if (!p.has_value()) continue;
    ++checked;

    // Permute AND mutate one configuration: almost always a guaranteed
    // negative. The property under test is agreement either way.
    const std::vector<Label> sigma = random_permutation(p->alphabet_size(), rng);
    const Problem other = mutate_one_configuration(apply_renaming(*p, sigma), rng);

    const auto canonical = equivalent_up_to_renaming(*p, other);
    const auto brute = equivalent_up_to_renaming_bruteforce(*p, other);
    ASSERT_EQ(canonical.has_value(), brute.has_value()) << "seed " << seed;
    if (canonical.has_value()) {
      ASSERT_TRUE(is_witness(*p, other, *canonical)) << "seed " << seed;
    } else {
      ++negatives;
    }
    // Fingerprints must separate non-equivalent problems of matching shape
    // (a collision here would be a cache-corrupting bug, not bad luck:
    // these alphabets are far too small for 2^-64 noise).
    if (!brute.has_value() && other.white().size() == p->white().size()) {
      ASSERT_NE(canonical_fingerprint(*p), canonical_fingerprint(other))
          << "seed " << seed;
    }
  }
  EXPECT_GE(checked, 500);
  // The corpus must be dominated by true negatives, not degenerate skips.
  EXPECT_GT(negatives, checked / 2);
}

TEST(Canonical, StructuredFamiliesAreRenamingInvariant) {
  const std::vector<Problem> family = {
      make_maximal_matching_problem(3), make_sinkless_orientation_problem(3),
      make_coloring_problem(3, 2), make_coloring_problem(4, 3),
      make_proper_coloring_problem(3, 3)};
  Rng rng(99);
  for (const Problem& p : family) {
    const CanonicalForm base = canonicalize(p);
    for (int round = 0; round < 20; ++round) {
      const std::vector<Label> sigma = random_permutation(p.alphabet_size(), rng);
      const CanonicalForm permuted = canonicalize(apply_renaming(p, sigma));
      ASSERT_EQ(base.fingerprint, permuted.fingerprint) << p.name();
      ASSERT_EQ(base.problem, permuted.problem) << p.name();
    }
  }
}

TEST(Canonical, DropUnusedLabelsCommutesWithRenaming) {
  // Regression for the pre-canonicalization bug: drop_unused_labels used to
  // reindex survivors in used-label order, so renaming-equivalent inputs
  // could disagree structurally after dropping. Build a problem with a gap
  // (unused middle label) and compare dropping before/after a renaming.
  int checked = 0;
  for (std::uint64_t seed = 1; checked < 200; ++seed) {
    Rng rng(seed);
    const auto drawn = draw_problem(rng);
    if (!drawn.has_value()) continue;

    // Append an unused label so the drop actually fires.
    LabelRegistry reg = drawn->registry();
    reg.intern("junk");
    const Problem p(drawn->name(), reg, drawn->white(), drawn->black());
    ++checked;

    const std::vector<Label> sigma = random_permutation(p.alphabet_size(), rng);
    const Problem dropped_direct = drop_unused_labels(p);
    const Problem dropped_renamed = drop_unused_labels(apply_renaming(p, sigma));

    // The fix: structurally identical results (names may differ — they
    // travel with the original labels).
    ASSERT_TRUE(same_constraints(dropped_direct, dropped_renamed))
        << "seed " << seed;
    ASSERT_FALSE(dropped_direct.registry().find("junk").has_value());
    // The reindexing is the canonical one: round_eliminate stores
    // drop_unused_labels' constraints in the RE cache as the canonical form
    // without canonicalizing again.
    ASSERT_TRUE(same_constraints(canonicalize(dropped_direct).problem, dropped_direct))
        << "seed " << seed;
  }
}

TEST(Canonical, DropUnusedLabelsOldOrderDependenceIsPinned) {
  // The concrete shape of the old bug, kept explicit: two renamings of the
  // same problem whose used labels appear in different index orders. Under
  // used-label-order reindexing these produced different constraint sets;
  // canonical reindexing makes them agree.
  LabelRegistry reg;
  reg.intern("A");
  reg.intern("junk");
  reg.intern("B");
  Constraint white(2);
  white.add(Configuration({Label{0}, Label{0}}));
  white.add(Configuration({Label{0}, Label{2}}));
  Constraint black(2);
  black.add(Configuration({Label{2}, Label{2}}));
  const Problem p("pinned", reg, white, black);

  // Swap A and B (junk stays): used-label order becomes B-before-A.
  const Problem swapped = apply_renaming(p, {Label{2}, Label{1}, Label{0}});

  const Problem a = drop_unused_labels(p);
  const Problem b = drop_unused_labels(swapped);
  EXPECT_TRUE(same_constraints(a, b));
  EXPECT_EQ(canonical_fingerprint(a), canonical_fingerprint(b));
  // Names survive for surviving labels.
  EXPECT_TRUE(a.registry().find("A").has_value());
  EXPECT_TRUE(a.registry().find("B").has_value());
  EXPECT_FALSE(a.registry().find("junk").has_value());
  EXPECT_EQ(a.alphabet_size(), 2u);
}

}  // namespace
}  // namespace slocal
