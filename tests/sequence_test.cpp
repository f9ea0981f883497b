// Lower bound sequence verification (Section 2's definition + Corollary
// 4.6 and Corollary 5.5 instantiations).
#include <gtest/gtest.h>

#include "src/problems/coloring_family.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/sequence.hpp"

namespace slocal {
namespace {

TEST(Sequence, MatchingSequenceVerifies) {
  // Corollary 4.6: Π_Δ(x,y), Π_Δ(x+y,y), ..., Π_Δ(x+ky,y) with
  // x + (k+1)y <= Δ.
  const auto problems = matching_lower_bound_sequence(4, 0, 1, 2);
  ASSERT_EQ(problems.size(), 3u);
  REOptions options;
  options.max_configurations = 5'000'000;
  const auto report = verify_lower_bound_sequence(problems, options);
  EXPECT_TRUE(report.valid) << report.to_string();
  EXPECT_EQ(report.steps.size(), 2u);
}

TEST(Sequence, ColoringFixedPointSequenceVerifies) {
  // Corollary 5.5: the constant sequence Π_Δ(k), Π_Δ(k), ... is a lower
  // bound sequence of any length when k <= Δ.
  const Problem pi = make_coloring_problem(3, 2);
  const std::vector<Problem> problems{pi, pi, pi};
  const auto report = verify_lower_bound_sequence(problems);
  EXPECT_TRUE(report.valid) << report.to_string();
}

TEST(Sequence, BrokenSequenceDetected) {
  // Π_Δ(2,1) -> Π_Δ(0,1) reverses a relaxation: must fail.
  std::vector<Problem> problems{make_matching_problem(4, 2, 1),
                                make_matching_problem(4, 0, 1)};
  const auto report = verify_lower_bound_sequence(problems);
  EXPECT_FALSE(report.valid);
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_TRUE(report.steps[0].re_computed);
  EXPECT_FALSE(report.steps[0].relaxation_found);
}

TEST(Sequence, DeltaFiveMatchingChainWorkIsPinned) {
  // The Δ'=5 Corollary 4.6 chain verified serially, cache off. These exact
  // work counters are the ones the packed-multiset kernel must leave
  // untouched: the encoding changes, the searches do not.
  const auto problems =
      matching_lower_bound_sequence(5, 0, 1, matching_sequence_length(5, 0, 1));
  REStats stats;
  REOptions options;
  options.threads = 1;
  options.stats = &stats;
  const auto report = verify_lower_bound_sequence(problems, options);
  ASSERT_TRUE(report.valid) << report.to_string();
  ASSERT_EQ(report.steps.size(), 3u);
  std::uint64_t relaxation_nodes = 0;
  for (const SequenceStepReport& step : report.steps) {
    relaxation_nodes += step.relaxation_nodes;
  }
  EXPECT_EQ(stats.dfs_nodes, 4758u);
  EXPECT_EQ(stats.extendable_calls, 92289u);
  EXPECT_EQ(stats.partials_deduped, 33302u);
  EXPECT_EQ(relaxation_nodes, 21777u);
}

TEST(Sequence, TheoremB2Bound) {
  EXPECT_DOUBLE_EQ(theorem_b2_bound(5, 100), 10.0);  // 2k limited
  EXPECT_DOUBLE_EQ(theorem_b2_bound(100, 12), 4.0);  // girth limited
}

TEST(Sequence, ReportRendering) {
  const auto problems = matching_lower_bound_sequence(4, 0, 1, 1);
  const auto report = verify_lower_bound_sequence(problems);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("step 1"), std::string::npos);
  EXPECT_NE(text.find("VALID"), std::string::npos);
}

}  // namespace
}  // namespace slocal
