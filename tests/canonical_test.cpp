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
// commute with renaming. Because certificates and RE caches store
// fingerprints, the canonical output itself is pinned too: golden
// fingerprints and perms recorded by the original implementation, and a
// differential against that implementation (canonical_reference.cpp).
#include "src/formalism/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "src/formalism/parser.hpp"
#include "src/formalism/problem.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/problems/matching_family.hpp"
#include "src/problems/rulingset_family.hpp"
#include "src/re/round_elimination.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/rng.hpp"
#include "tests/canonical_reference.hpp"
#include "tests/diff_oracle.hpp"

#ifndef SLOCAL_PROBLEM_DIR
#define SLOCAL_PROBLEM_DIR "examples/problems"
#endif

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

/// Exact agreement with the per-label reference implementation: perm,
/// fingerprint, and the canonical problem (constraints, synthetic registry,
/// name).
::testing::AssertionResult matches_reference(const Problem& p) {
  const CanonicalForm now = canonicalize(p);
  const CanonicalForm ref = canonicalize_reference(p);
  if (now.perm != ref.perm) return ::testing::AssertionFailure() << "perm differs";
  if (now.fingerprint != ref.fingerprint) {
    return ::testing::AssertionFailure() << "fingerprint differs";
  }
  if (!same_constraints(now.problem, ref.problem) || !(now.problem == ref.problem)) {
    return ::testing::AssertionFailure() << "canonical problem differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(Canonical, MatchesReferenceOn500PlusSeededProblemsAndRenamings) {
  int checked = 0;
  for (std::uint64_t seed = 1; checked < kSeeds; ++seed) {
    Rng rng(seed);
    const auto p = draw_problem(rng);
    if (!p.has_value()) continue;
    ++checked;
    ASSERT_TRUE(matches_reference(*p)) << "seed " << seed;
    for (int round = 0; round < 3; ++round) {
      const std::vector<Label> sigma = random_permutation(p->alphabet_size(), rng);
      ASSERT_TRUE(matches_reference(apply_renaming(*p, sigma)))
          << "seed " << seed << " renaming " << round;
    }
  }
  EXPECT_GE(checked, 500);
}

/// `p` over twice the alphabet, every label l paired with a twin l + n:
/// each configuration is added three times with a random choice between
/// every label and its twin, each time together with its mirror image
/// (every label swapped with its twin). Swapping all twins is then an
/// automorphism, so the refinement leaves classes the search must
/// individualize — the path where the refinement loop's stop rule matters.
Problem twinned_problem(const Problem& p, Rng& rng) {
  const std::size_t n = p.alphabet_size();
  LabelRegistry reg;
  for (std::size_t l = 0; l < 2 * n; ++l) reg.intern("T" + std::to_string(l));
  const auto twin_side = [&](const Constraint& c) {
    Constraint out(c.degree());
    for (const Configuration& cfg : c.sorted_members()) {
      for (int variant = 0; variant < 3; ++variant) {
        std::vector<Label> pick;
        std::vector<Label> mirror;
        for (const Label l : cfg.labels()) {
          const bool twin = rng.below(2) == 1;
          pick.push_back(static_cast<Label>(twin ? l + n : l));
          mirror.push_back(static_cast<Label>(twin ? l : l + n));
        }
        out.add(Configuration(std::move(pick)));
        out.add(Configuration(std::move(mirror)));
      }
    }
    return out;
  };
  return Problem(p.name() + "/twinned", std::move(reg), twin_side(p.white()),
                 twin_side(p.black()));
}

TEST(Canonical, MatchesReferenceOnTwinnedProblems) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const std::size_t dw = 2 + static_cast<std::size_t>(rng.below(3));
    const std::size_t db = 2 + static_cast<std::size_t>(rng.below(3));
    const std::size_t alphabet = 2 + static_cast<std::size_t>(rng.below(4));
    const auto p = random_problem(dw, db, alphabet, rng);
    if (!p.has_value()) continue;
    ++checked;
    ASSERT_TRUE(matches_reference(twinned_problem(*p, rng))) << "seed " << seed;
  }
  EXPECT_GE(checked, 600);
}

/// An asymmetric problem over `n` labels: white {0 0} and every {i i+1},
/// black every {i i i+1}. Refinement splits it down to single labels, so
/// alphabets far above 16 stay cheap to canonicalize (a fully symmetric
/// alphabet, like proper coloring's, costs n! leaves).
Problem ladder_problem(std::size_t n) {
  LabelRegistry reg;
  for (std::size_t l = 0; l < n; ++l) reg.intern("L" + std::to_string(l));
  Constraint white(2);
  Constraint black(3);
  white.add(Configuration({Label{0}, Label{0}}));
  for (std::size_t l = 0; l + 1 < n; ++l) {
    const Label a = static_cast<Label>(l);
    const Label b = static_cast<Label>(l + 1);
    white.add(Configuration({a, b}));
    black.add(Configuration({a, a, b}));
  }
  return Problem("ladder" + std::to_string(n), std::move(reg), std::move(white),
                 std::move(black));
}

/// Every problem family the repository generates, over small parameters.
/// Alphabets above 16 (the ladders) and degrees above 15 (the Δ = 16
/// problems) take the refinement's unpacked path.
std::vector<Problem> generated_families() {
  std::vector<Problem> out;
  for (std::size_t delta = 2; delta <= 6; ++delta) {
    for (std::size_t y = 1; y < delta; ++y) {
      for (std::size_t x = 0; x + y <= delta; ++x) {
        out.push_back(make_matching_problem(delta, x, y));
      }
    }
  }
  out.push_back(make_matching_problem(7, 1, 2));
  for (std::size_t delta = 2; delta <= 4; ++delta) {
    for (std::size_t c = 1; c <= 3; ++c) out.push_back(make_coloring_problem(delta, c));
  }
  out.push_back(make_coloring_problem(3, 4));
  for (std::size_t delta = 3; delta <= 4; ++delta) {
    for (std::size_t c = 1; c <= 2; ++c) {
      for (std::size_t beta = 1; beta <= 2; ++beta) {
        out.push_back(make_rulingset_problem(delta, c, beta));
      }
    }
  }
  for (std::size_t delta = 2; delta <= 5; ++delta) {
    out.push_back(make_maximal_matching_problem(delta));
    out.push_back(make_sinkless_orientation_problem(delta));
    out.push_back(make_proper_coloring_problem(delta, delta + 1));
  }
  out.push_back(ladder_problem(17));
  out.push_back(ladder_problem(24));
  out.push_back(make_maximal_matching_problem(16));
  out.push_back(make_sinkless_orientation_problem(16));
  out.push_back(make_hypergraph_coloring_problem(3, 3, 2));
  out.push_back(make_hypergraph_coloring_problem(2, 3, 3));
  out.push_back(make_hypergraph_matching_problem(3, 3));
  out.push_back(make_hypergraph_matching_problem(2, 4));
  return out;
}

TEST(Canonical, MatchesReferenceOnGeneratedFamiliesAndTheirREOutputs) {
  REOptions options;
  options.threads = 1;
  options.max_configurations = 200'000;
  Rng rng(17);
  int re_outputs = 0;
  for (const Problem& p : generated_families()) {
    std::vector<Problem> subjects = {p};
    // RE only where it stays fast: the 16-label and Δ = 16 inputs cost
    // hundreds of milliseconds each.
    const bool small = p.alphabet_size() <= 9 && p.white_degree() <= 7;
    if (auto re = small ? round_eliminate(p, options) : std::nullopt) {
      subjects.push_back(std::move(*re));
      ++re_outputs;
    }
    for (const Problem& subject : subjects) {
      ASSERT_TRUE(matches_reference(subject)) << subject.name();
      const std::vector<Label> sigma = random_permutation(subject.alphabet_size(), rng);
      ASSERT_TRUE(matches_reference(apply_renaming(subject, sigma)))
          << subject.name() << " renamed";
    }
  }
  EXPECT_GE(re_outputs, 50);
}

struct Named {
  std::string name;
  Problem problem;
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The pinned corpus: every examples/problems file, the E2 bench_re inputs,
/// the Corollary 4.6 chains for Δ' = 3..7, and the RE output of each.
std::vector<Named> golden_corpus() {
  std::vector<Named> inputs;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(SLOCAL_PROBLEM_DIR)) {
    if (entry.path().extension() == ".txt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string file = path.filename().string();
    auto p = parse_problem_text(file, buffer.str());
    if (!p.has_value()) {
      ADD_FAILURE() << "cannot parse " << path;
      continue;
    }
    inputs.push_back({"file:" + file, std::move(*p)});
  }
  for (const auto& [delta, x, y] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {4, 0, 1}, {4, 1, 1}, {4, 2, 1}, {5, 0, 1},
           {5, 1, 1}, {5, 1, 2}, {6, 1, 2}, {7, 1, 2}}) {
    inputs.push_back({"E2:" + std::to_string(delta) + "," + std::to_string(x) + "," +
                          std::to_string(y),
                      make_matching_problem(delta, x, y)});
  }
  for (std::size_t delta = 3; delta <= 7; ++delta) {
    const std::vector<Problem> chain = matching_lower_bound_sequence(
        delta, 0, 1, matching_sequence_length(delta, 0, 1));
    for (std::size_t i = 0; i < chain.size(); ++i) {
      inputs.push_back({"chain" + std::to_string(delta) + "[" + std::to_string(i) + "]",
                        chain[i]});
    }
  }
  std::vector<Named> out = inputs;
  REOptions options;
  options.threads = 1;
  options.max_configurations = 5'000'000;
  for (const Named& in : inputs) {
    auto re = round_eliminate(in.problem, options);
    if (re.has_value()) out.push_back({"RE(" + in.name + ")", std::move(*re)});
  }
  return out;
}

struct GoldenPin {
  const char* name;
  /// fnv1a of format_problem(): pins the input itself, and for RE outputs
  /// the canonical reindexing drop_unused_labels applied.
  std::uint64_t text_hash;
  std::uint64_t fingerprint;
  std::vector<Label> perm;
};

/// One table entry as C++ source, so a mismatch prints the line to paste.
std::string pin_literal(const std::string& name, std::uint64_t text_hash,
                        std::uint64_t fingerprint, const std::vector<Label>& perm) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"%s\", 0x%016llxULL, 0x%016llxULL, {", name.c_str(),
                static_cast<unsigned long long>(text_hash),
                static_cast<unsigned long long>(fingerprint));
  std::string out = buf;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::to_string(perm[i]);
  }
  return out + "}},";
}

// Recorded from the per-label refinement (canonical_reference.cpp) before
// the one-pass rewrite; a mismatch prints the entry as computed now.
const std::vector<GoldenPin>& golden_pins() {
  static const std::vector<GoldenPin> pins = {
      {"file:edge_parity_3.txt", 0x212252697e0a5088ULL, 0x7ca08639acef196fULL, {0, 1}},
      {"file:matching_3_0_1.txt", 0xb5d7fdee294a05ffULL, 0x1207d991630ec1b9ULL, {3, 1, 4, 0, 2}},
      {"file:matching_3_1_1.txt", 0x45c60eb87ac91c81ULL, 0xd345a7196f1a69d4ULL, {3, 0, 4, 1, 2}},
      {"file:maximal_matching_3.txt", 0x57f307d042813b61ULL, 0x755c7eee5494ae88ULL, {0, 1, 2}},
      {"file:sinkless_orientation_3.txt", 0x98c494c3270e4dd9ULL, 0x295eb8c086c7d70cULL, {0, 1}},
      {"file:two_coloring.txt", 0xc3573438b10eec54ULL, 0x8001e77ca969d67dULL, {0, 1}},
      {"file:weak_2_coloring_r3.txt", 0x0878169450741186ULL, 0x735c52cf70e289bfULL, {0, 1}},
      {"E2:4,0,1", 0x17e86ee7420db9cdULL, 0xb5be0a5bae39dedfULL, {2, 4, 3, 0, 1}},
      {"E2:4,1,1", 0xf3c1a53e0b2fb66eULL, 0x5443195a32b187f5ULL, {3, 4, 1, 0, 2}},
      {"E2:4,2,1", 0x9284881093e82784ULL, 0xd17b43c631a9b664ULL, {2, 3, 4, 0, 1}},
      {"E2:5,0,1", 0x556a9625ab229bdaULL, 0xc809ed3c131a97f4ULL, {2, 4, 3, 0, 1}},
      {"E2:5,1,1", 0xc196216d4017db5fULL, 0xdcdfa5d3b9a5d5b9ULL, {3, 4, 1, 0, 2}},
      {"E2:5,1,2", 0x9db837563d4ddfafULL, 0x3f5d74445a875150ULL, {2, 4, 1, 0, 3}},
      {"E2:6,1,2", 0xcb51b2617f32a0d8ULL, 0xc8d33842bbbb5b1eULL, {2, 4, 1, 0, 3}},
      {"E2:7,1,2", 0x00d2ff6bd367cb1cULL, 0xabdc17a7d2a4d9f1ULL, {2, 4, 1, 0, 3}},
      {"chain3[0]", 0xdc7f182c8094a514ULL, 0x1207d991630ec1b9ULL, {3, 4, 1, 0, 2}},
      {"chain3[1]", 0x3ad1e4a6ed663fdcULL, 0xd345a7196f1a69d4ULL, {3, 4, 0, 1, 2}},
      {"chain4[0]", 0x17e86ee7420db9cdULL, 0xb5be0a5bae39dedfULL, {2, 4, 3, 0, 1}},
      {"chain4[1]", 0xf3c1a53e0b2fb66eULL, 0x5443195a32b187f5ULL, {3, 4, 1, 0, 2}},
      {"chain4[2]", 0x9284881093e82784ULL, 0xd17b43c631a9b664ULL, {2, 3, 4, 0, 1}},
      {"chain5[0]", 0x556a9625ab229bdaULL, 0xc809ed3c131a97f4ULL, {2, 4, 3, 0, 1}},
      {"chain5[1]", 0xc196216d4017db5fULL, 0xdcdfa5d3b9a5d5b9ULL, {3, 4, 1, 0, 2}},
      {"chain5[2]", 0x969a204dd137e5aeULL, 0x24a4bc27d7a06990ULL, {2, 4, 3, 0, 1}},
      {"chain5[3]", 0x3123d1576190d59bULL, 0x1779fc1b30d120ecULL, {2, 3, 4, 0, 1}},
      {"chain6[0]", 0x8a6e8790fe2e81b1ULL, 0xd98b2b7f5dde418dULL, {2, 4, 3, 0, 1}},
      {"chain6[1]", 0xd5d912216b0bb9a2ULL, 0xfbb2ec043e96f165ULL, {3, 4, 1, 0, 2}},
      {"chain6[2]", 0x72bc91fcff8bb661ULL, 0x917852a15ab4ef61ULL, {2, 4, 3, 0, 1}},
      {"chain6[3]", 0xf0bfcfcd3f8fe8dbULL, 0xf422b63ccc040dd9ULL, {2, 3, 4, 0, 1}},
      {"chain6[4]", 0xe18939533a1f34c0ULL, 0x69b8675fe853e292ULL, {2, 3, 4, 0, 1}},
      {"chain7[0]", 0xda9780b40bd01b3fULL, 0x571ae0f5f49dd93bULL, {2, 4, 3, 0, 1}},
      {"chain7[1]", 0xad8358b120676d7aULL, 0x92102ee7108ff592ULL, {3, 4, 1, 0, 2}},
      {"chain7[2]", 0x0ec1b4da7e9062cfULL, 0x75e3a59f2140e85fULL, {2, 4, 3, 0, 1}},
      {"chain7[3]", 0x020c2d2b60e1acf3ULL, 0xedc7b46055bf5357ULL, {2, 4, 3, 0, 1}},
      {"chain7[4]", 0x734015085a6ed6ffULL, 0x9630cacedd81390cULL, {2, 3, 4, 0, 1}},
      {"chain7[5]", 0x7e737a360cb99feeULL, 0x320c319be4c46b63ULL, {2, 3, 4, 0, 1}},
      {"RE(file:edge_parity_3.txt)", 0x6fb353a324d7b95aULL, 0x7ca08639acef196fULL, {0, 1}},
      {"RE(file:matching_3_0_1.txt)", 0x62e2c0d74475f919ULL, 0x669b98a04819f73bULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(file:matching_3_1_1.txt)", 0x8e48e1bab4963b23ULL, 0xf216913d04ddde6aULL, {0, 1}},
      {"RE(file:maximal_matching_3.txt)", 0xa23cc4e29b972c08ULL, 0xea3282aef2c22e0cULL, {0, 1, 2, 3, 4, 5}},
      {"RE(file:sinkless_orientation_3.txt)", 0x8f1a5a18315a6038ULL, 0xf6cfdfd2c1dd6accULL, {0, 1}},
      {"RE(file:two_coloring.txt)", 0x74d27ef92c4c8cd2ULL, 0x8001e77ca969d67dULL, {0, 1}},
      {"RE(file:weak_2_coloring_r3.txt)", 0x2250cb000dab21b5ULL, 0x51f5cb1daa830e76ULL, {0, 1, 2, 3}},
      {"RE(E2:4,0,1)", 0x73c404a8f2f7acc4ULL, 0xc33bfe43fb25ce47ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(E2:4,1,1)", 0xc0a1f5f55b159171ULL, 0x06054ffa03516916ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(E2:4,2,1)", 0xa03b794635de6b83ULL, 0xbc56468e82df71aaULL, {0, 1}},
      {"RE(E2:5,0,1)", 0x1e694e018111132bULL, 0xdb7f5b525b1a9154ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(E2:5,1,1)", 0x1b71bf1b9c19344aULL, 0x6a2ed1a2dbf9529dULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(E2:5,1,2)", 0x25443cc40b0126feULL, 0x76c2a5c1db1356dbULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(E2:6,1,2)", 0x6316bd5f125fb743ULL, 0x4d39a13ffd686d3aULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(E2:7,1,2)", 0x52c9617c87b0f27bULL, 0x6db91bc76f897492ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain3[0])", 0x7e6de295105a8d7eULL, 0x669b98a04819f73bULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain3[1])", 0x72099e077cc1c52eULL, 0xf216913d04ddde6aULL, {0, 1}},
      {"RE(chain4[0])", 0x73c404a8f2f7acc4ULL, 0xc33bfe43fb25ce47ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain4[1])", 0xc0a1f5f55b159171ULL, 0x06054ffa03516916ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain4[2])", 0xa03b794635de6b83ULL, 0xbc56468e82df71aaULL, {0, 1}},
      {"RE(chain5[0])", 0x1e694e018111132bULL, 0xdb7f5b525b1a9154ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain5[1])", 0x1b71bf1b9c19344aULL, 0x6a2ed1a2dbf9529dULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain5[2])", 0xbc216d707c5875c8ULL, 0x7f37ae6cf5edaa7eULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain5[3])", 0x9307ea36b7f4394cULL, 0xc53bbd7f78cc8b29ULL, {0, 1}},
      {"RE(chain6[0])", 0xb7b79f50bc3e8e21ULL, 0x8d29661a85f4e70fULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain6[1])", 0xcffbb5db0dd09e42ULL, 0x0e5c9ba117df40feULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain6[2])", 0xc5d83438bfae6813ULL, 0xb2067ff7f42aaf30ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain6[3])", 0xd07b4addf5ad98bcULL, 0x5ff059ccd13efa4eULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain6[4])", 0x309fad7f13f40c89ULL, 0x86c4548ca05134d9ULL, {0, 1}},
      {"RE(chain7[0])", 0x87f868c17ecda702ULL, 0x5b41f303d309574cULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain7[1])", 0xe19132dbf3d6ef27ULL, 0xad899ee514b7f618ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain7[2])", 0x669f4801a0da4f82ULL, 0x45145c27a7e14f31ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain7[3])", 0x3ff2e6f092190fd3ULL, 0xfb90f5f40b80f781ULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain7[4])", 0x5c868768432ffec1ULL, 0x7bfe9fd668b4266aULL, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {"RE(chain7[5])", 0x90082c8932adca3aULL, 0x346d8152d4acf416ULL, {0, 1}},
  };
  return pins;
}

TEST(Canonical, GoldenPinsOnExamplesBenchInputsChainsAndTheirREOutputs) {
  const std::vector<Named> corpus = golden_corpus();
  const std::vector<GoldenPin>& pins = golden_pins();
  std::vector<std::string> computed;
  for (const Named& entry : corpus) {
    const CanonicalForm cf = canonicalize(entry.problem);
    computed.push_back(pin_literal(entry.name, fnv1a(format_problem(entry.problem)),
                                   cf.fingerprint, cf.perm));
  }
  ASSERT_EQ(corpus.size(), pins.size())
      << "computed pins:\n" << ::testing::PrintToString(computed);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(pin_literal(pins[i].name, pins[i].text_hash, pins[i].fingerprint, pins[i].perm),
              computed[i]);
  }
}

}  // namespace
}  // namespace slocal
