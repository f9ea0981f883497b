// Lift construction tests (Definition 3.1): label-set alphabets, the ∀/∃
// conditions, implicit/explicit agreement, the Section 4.2 structural facts
// the counting lemmas use, the parameter range every lift entry point
// enforces, and the sweep-group slicing.
#include <gtest/gtest.h>

#include "src/cert/emit.hpp"
#include "src/formalism/diagram.hpp"
#include "src/graph/generators.hpp"
#include "src/lift/lift.hpp"
#include "src/lift/sweep.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/problems/matching_family.hpp"
#include "src/util/combinatorics.hpp"

namespace slocal {
namespace {

TEST(Lift, LabelSetsAreRightClosedSetsOfBlackDiagram) {
  const Problem pi = make_matching_problem(3, 1, 1);
  const LiftedProblem lift(pi, 5, 5);
  const Diagram d(pi.black(), pi.alphabet_size());
  const auto expected = d.right_closed_sets();
  ASSERT_EQ(lift.label_sets().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(lift.label_sets()[i], expected[i]);
    EXPECT_TRUE(lift.index_of(expected[i]).has_value());
  }
}

TEST(Lift, IndexOfRejectsNonClosedSets) {
  const Problem pi = make_matching_problem(3, 1, 1);
  const LiftedProblem lift(pi, 4, 4);
  const auto labels = matching_labels(pi);
  EXPECT_FALSE(lift.index_of(SmallBitset::single(labels.p)).has_value());
  EXPECT_FALSE(lift.index_of(SmallBitset{}).has_value());
}

TEST(Lift, SinklessOrientationLift) {
  // SO on Δ=3: black diagram of {I O} has no nontrivial strength, so the
  // lifted labels are {I}, {O}, {I,O}.
  const Problem so = make_sinkless_orientation_problem(3);
  const LiftedProblem lift(so, 3, 2);
  EXPECT_EQ(lift.label_sets().size(), 3u);

  const Label i = *so.registry().find("I");
  const Label o = *so.registry().find("O");
  const std::size_t si = *lift.index_of(SmallBitset::single(i));
  const std::size_t so_idx = *lift.index_of(SmallBitset::single(o));
  const std::size_t sio = *lift.index_of(SmallBitset::from_indices({i, o}));

  // Black condition (r = r' = 2): {I}{O} fine; {I,O} with anything fails
  // (a choice can pick {I,I} or {O,O}).
  EXPECT_TRUE(lift.black_ok(std::vector<std::size_t>{si, so_idx}));
  EXPECT_FALSE(lift.black_ok(std::vector<std::size_t>{sio, so_idx}));
  EXPECT_FALSE(lift.black_ok(std::vector<std::size_t>{si, si}));
  EXPECT_FALSE(lift.black_ok(std::vector<std::size_t>{sio, sio}));

  // White condition (Δ = Δ' = 3): needs an O available in every 3-subset
  // (trivially the whole multiset): {O}{I}{I} has choice O I I in C_W.
  EXPECT_TRUE(lift.white_ok(std::vector<std::size_t>{so_idx, si, si}));
  EXPECT_FALSE(lift.white_ok(std::vector<std::size_t>{si, si, si}));
  EXPECT_TRUE(lift.white_ok(std::vector<std::size_t>{sio, si, si}));
}

TEST(Lift, WhiteConditionQuantifiesOverSubsets) {
  // Δ = 4 > Δ' = 3 for SO: EVERY 3-subset must admit a choice with an O.
  const Problem so = make_sinkless_orientation_problem(3);
  const LiftedProblem lift(so, 4, 2);
  const Label i = *so.registry().find("I");
  const Label o = *so.registry().find("O");
  const std::size_t si = *lift.index_of(SmallBitset::single(i));
  const std::size_t so_idx = *lift.index_of(SmallBitset::single(o));
  // {O}{I}{I}{I}: the subset {I,I,I} has no O -> fails.
  EXPECT_FALSE(lift.white_ok(std::vector<std::size_t>{so_idx, si, si, si}));
  // {O}{O}{I}{I}: every 3-subset contains at least one {O} -> ok.
  EXPECT_TRUE(lift.white_ok(std::vector<std::size_t>{so_idx, so_idx, si, si}));
}

TEST(Lift, PartialChecksAreSoundPrunes) {
  const Problem so = make_sinkless_orientation_problem(3);
  const LiftedProblem lift(so, 4, 2);
  const Label i = *so.registry().find("I");
  const std::size_t si = *lift.index_of(SmallBitset::single(i));
  // Partial shorter than Δ' imposes nothing.
  EXPECT_TRUE(lift.white_partial_ok(std::vector<std::size_t>{si, si}));
  // At Δ' the violation is visible.
  EXPECT_FALSE(lift.white_partial_ok(std::vector<std::size_t>{si, si, si}));
  // Black partial of size 1: {I} alone extends ({I,O} exists).
  EXPECT_TRUE(lift.black_partial_ok(std::vector<std::size_t>{si}));
}

TEST(Lift, MaterializeAgreesWithImplicit) {
  const Problem so = make_sinkless_orientation_problem(3);
  const LiftedProblem lift(so, 3, 2);
  const auto explicit_problem = lift.materialize();
  ASSERT_TRUE(explicit_problem.has_value());
  EXPECT_EQ(explicit_problem->white_degree(), 3u);
  EXPECT_EQ(explicit_problem->black_degree(), 2u);
  const std::size_t m = lift.label_sets().size();
  // Cross-check every multiset's membership.
  for_each_multiset(m, 3, [&](const std::vector<std::size_t>& pick) {
    std::vector<Label> labels;
    for (const std::size_t p : pick) labels.push_back(static_cast<Label>(p));
    EXPECT_EQ(lift.white_ok(pick),
              explicit_problem->white().contains(Configuration(labels)));
    return true;
  });
  for_each_multiset(m, 2, [&](const std::vector<std::size_t>& pick) {
    std::vector<Label> labels;
    for (const std::size_t p : pick) labels.push_back(static_cast<Label>(p));
    EXPECT_EQ(lift.black_ok(pick),
              explicit_problem->black().contains(Configuration(labels)));
    return true;
  });
}

TEST(Lift, MaterializeRespectsCap) {
  const Problem pi = make_matching_problem(4, 1, 1);
  const LiftedProblem lift(pi, 8, 8);
  EXPECT_FALSE(lift.materialize(/*max_configurations=*/10).has_value());
}

TEST(Lift, Section42BlackPBound) {
  // Lemma 4.9's mechanism: since P^{Δ'} is not in the black constraint of
  // Π_Δ'(x', y), a black multiset of lift labels cannot have Δ' sets all
  // containing P.
  const std::size_t delta_prime = 3, y = 1;
  const Problem pi = make_matching_problem(delta_prime, delta_prime - 1 - y, y);
  const std::size_t delta = 5 * delta_prime;
  const LiftedProblem lift(pi, delta, delta);
  const auto labels = matching_labels(pi);
  const std::size_t pox =
      *lift.index_of(SmallBitset::from_indices({labels.p, labels.o, labels.x}));
  const std::size_t ox =
      *lift.index_of(SmallBitset::from_indices({labels.o, labels.x}));
  // Δ' copies of {P,O,X} padded with {O,X}: the P^{Δ'} choice violates.
  std::vector<std::size_t> config(delta, ox);
  for (std::size_t i = 0; i < delta_prime; ++i) config[i] = pox;
  EXPECT_FALSE(lift.black_ok(config));
  // With only Δ'-1 P-sets it is consistent.
  config[delta_prime - 1] = ox;
  EXPECT_TRUE(lift.black_ok(config));
}

TEST(Lift, ColoringLiftEdgeDisjointness) {
  // For Π_Δ'(k) (edge constraint: disjoint color sets or X), two lifted
  // half-edge sets both containing l({1}) cannot share an edge.
  const Problem pi = make_coloring_problem(3, 2);
  const LiftedProblem lift(pi, 3, 2);
  const Label c1 = *coloring_label(pi, SmallBitset::single(0));
  const Label x = *pi.registry().find("X");
  const Diagram d(pi.black(), pi.alphabet_size());
  const SmallBitset closed = d.right_closure(SmallBitset::single(c1));
  const auto idx = lift.index_of(closed);
  ASSERT_TRUE(idx.has_value());
  EXPECT_FALSE(lift.black_ok(std::vector<std::size_t>{*idx, *idx}));
  const auto x_idx = lift.index_of(d.right_closure(SmallBitset::single(x)));
  ASSERT_TRUE(x_idx.has_value());
  EXPECT_TRUE(lift.black_ok(std::vector<std::size_t>{*idx, *x_idx}));
}

TEST(LiftParameters, RBelowBlackDegreeIsRefusedInEveryBuild) {
  // MM_3 has white and black degree 3, so lift_{3,1} lies outside
  // Definition 3.1. The refusal is a library check, not an assert: Release
  // builds must refuse too, and no entry point may build the lift.
  const Problem mm = make_maximal_matching_problem(3);
  EXPECT_EQ(lift_parameter_error(mm, 3, 3), "");
  const std::string refused = lift_parameter_error(mm, 3, 1);
  EXPECT_NE(refused.find("must dominate"), std::string::npos) << refused;
  EXPECT_NE(lift_parameter_error(mm, 2, 2), "");

  const LiftSweepResult sweep =
      run_lift_sweep(mm, 3, 1, make_gadget_supports(3, 1, 1, 3));
  EXPECT_EQ(sweep.refused, refused);
  EXPECT_FALSE(sweep.lift_materialized);
  EXPECT_TRUE(sweep.steps.empty());

  const SweepGroupMember member{1, 2};
  const SweepGroupResult group = run_lift_sweep_group(mm, 3, 1, false, {&member, 1});
  EXPECT_EQ(group.sweep.refused, refused);
  EXPECT_FALSE(group.lift_materialized);

  // lift_solvable reads (Δ, r) off the support: K_{3,1} has black degree 1.
  EXPECT_EQ(lift_solvable(make_complete_bipartite(3, 1), mm), Verdict::kExhausted);
  EXPECT_FALSE(cert::make_lift_unsat_certificate(mm, 3, 1, make_complete_bipartite(1, 3))
                   .has_value());
}

TEST(LiftSweepGroup, OverlappingMembersMatchPerMemberSweeps) {
  // One union solve over overlapping ranges must slice out exactly the
  // verdicts each member gets from its own run_lift_sweep, for both family
  // kinds.
  const Problem c2 = make_proper_coloring_problem(2, 2);
  const std::vector<SweepGroupMember> cycles = {{2, 4}, {3, 5}, {4, 4}};
  const SweepGroupResult by_cycles = run_lift_sweep_group(c2, 2, 2, true, cycles);
  ASSERT_TRUE(by_cycles.lift_materialized);
  EXPECT_EQ(by_cycles.sizes, (std::vector<std::size_t>{2, 3, 4, 5}));
  ASSERT_EQ(by_cycles.member_verdicts.size(), cycles.size());
  bool saw_yes = false, saw_no = false;
  for (std::size_t m = 0; m < cycles.size(); ++m) {
    const LiftSweepResult alone =
        run_lift_sweep(c2, 2, 2, make_cycle_supports(cycles[m].lo, cycles[m].hi));
    std::vector<Verdict> expected;
    for (const LiftSweepStep& step : alone.steps) expected.push_back(step.verdict);
    EXPECT_EQ(by_cycles.member_verdicts[m], expected) << "member " << m;
    for (const Verdict v : expected) {
      saw_yes = saw_yes || v == Verdict::kYes;
      saw_no = saw_no || v == Verdict::kNo;
    }
  }
  EXPECT_TRUE(saw_yes && saw_no);  // odd cycles refute, even ones solve

  const Problem mm = make_maximal_matching_problem(3);
  const std::vector<SweepGroupMember> gadgets = {{1, 3}, {2, 4}};
  const SweepGroupResult by_gadgets = run_lift_sweep_group(mm, 3, 3, false, gadgets);
  ASSERT_TRUE(by_gadgets.lift_materialized);
  for (std::size_t m = 0; m < gadgets.size(); ++m) {
    const LiftSweepResult alone = run_lift_sweep(
        mm, 3, 3, make_gadget_supports(3, 3, gadgets[m].lo, gadgets[m].hi));
    std::vector<Verdict> expected;
    for (const LiftSweepStep& step : alone.steps) expected.push_back(step.verdict);
    EXPECT_EQ(by_gadgets.member_verdicts[m], expected) << "member " << m;
  }
}

}  // namespace
}  // namespace slocal
