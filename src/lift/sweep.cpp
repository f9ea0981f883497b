#include "src/lift/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "src/graph/generators.hpp"
#include "src/lift/lift.hpp"
#include "src/solver/cnf_encoding.hpp"

namespace slocal {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

Verdict verdict_of(SatResult r) {
  switch (r) {
    case SatResult::kSat:
      return Verdict::kYes;
    case SatResult::kUnsat:
      return Verdict::kNo;
    case SatResult::kUnknown:
      break;
  }
  return Verdict::kExhausted;
}

}  // namespace

Verdict lift_solvable(const BipartiteGraph& g, const Problem& pi,
                      SearchBudget* budget) {
  if (!lift_parameter_error(pi, g.max_white_degree(), g.max_black_degree()).empty()) {
    return Verdict::kExhausted;
  }
  const LiftedProblem lift(pi, g.max_white_degree(), g.max_black_degree());
  const std::optional<Problem> psi = lift.materialize();
  if (!psi.has_value()) return Verdict::kExhausted;
  SatLabelingStats stats;
  solve_bipartite_labeling_sat(g, *psi, /*conflict_budget=*/0, &stats, budget);
  return verdict_of(stats.result);
}

LiftSweepResult run_lift_sweep(const Problem& pi, std::size_t big_delta,
                               std::size_t big_r,
                               std::span<const BipartiteGraph> supports,
                               const LiftSweepOptions& options) {
  LiftSweepResult result;
  result.refused = lift_parameter_error(pi, big_delta, big_r);
  if (!result.refused.empty()) return result;
  const LiftedProblem lift(pi, big_delta, big_r);
  std::optional<Problem> psi = lift.materialize();
  if (!psi.has_value()) return result;
  result.lift_materialized = true;
  result.steps.reserve(supports.size());

  if (options.incremental) {
    IncrementalLabelingSweep sweep(std::move(*psi));
    for (const BipartiteGraph& g : supports) {
      const auto start = std::chrono::steady_clock::now();
      const IncrementalLabelingSweep::Step raw =
          sweep.solve_support(g, options.budget);
      LiftSweepStep step;
      step.verdict = raw.verdict;
      step.edges = g.edge_count();
      step.new_clauses = raw.new_clauses;
      step.reused_guards = raw.reused_guards;
      step.conflicts = raw.stats.conflicts;
      step.core_nodes = raw.core.size();
      if (raw.verdict == Verdict::kNo && options.certify_cores) {
        step.core_check = sweep.check_last_core(options.budget);
        if (step.core_check == Verdict::kNo) {
          step.core_nodes_minimized = sweep.last_core().size();
        }
      }
      step.wall_ms = ms_since(start);
      result.total_conflicts += step.conflicts;
      result.total_wall_ms += step.wall_ms;
      result.steps.push_back(step);
    }
    result.total_clauses = sweep.clause_count();
    result.total_propagations = sweep.solver().propagations();
    result.sat_stats = sweep.solver().stats();
  } else {
    for (const BipartiteGraph& g : supports) {
      const auto start = std::chrono::steady_clock::now();
      SatLabelingStats stats;
      solve_bipartite_labeling_sat(g, *psi, /*conflict_budget=*/0, &stats,
                                   options.budget);
      LiftSweepStep step;
      step.verdict = verdict_of(stats.result);
      step.edges = g.edge_count();
      step.new_clauses = stats.clauses;
      step.conflicts = stats.conflicts;
      step.wall_ms = ms_since(start);
      result.total_clauses += step.new_clauses;
      result.total_conflicts += step.conflicts;
      result.total_wall_ms += step.wall_ms;
      result.steps.push_back(step);
    }
  }
  return result;
}

std::vector<BipartiteGraph> make_gadget_supports(std::size_t big_delta,
                                                 std::size_t big_r, std::size_t lo,
                                                 std::size_t hi) {
  std::vector<BipartiteGraph> supports;
  if (lo == 0 || hi < lo) return supports;
  supports.reserve(hi - lo + 1);
  for (std::size_t k = lo; k <= hi; ++k) {
    BipartiteGraph g(k * big_r, k * big_delta);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t w = 0; w < big_r; ++w) {
        for (std::size_t b = 0; b < big_delta; ++b) {
          g.add_edge(static_cast<NodeId>(j * big_r + w),
                     static_cast<NodeId>(j * big_delta + b));
        }
      }
    }
    supports.push_back(std::move(g));
  }
  return supports;
}

std::vector<BipartiteGraph> make_cycle_supports(std::size_t lo, std::size_t hi) {
  std::vector<BipartiteGraph> supports;
  if (lo < 2 || hi < lo) return supports;
  supports.reserve(hi - lo + 1);
  for (std::size_t half = lo; half <= hi; ++half) {
    supports.push_back(make_bipartite_cycle(half));
  }
  return supports;
}

std::vector<BipartiteGraph> make_gadget_supports_for(
    std::size_t big_delta, std::size_t big_r, const std::vector<std::size_t>& sizes) {
  std::vector<BipartiteGraph> supports;
  supports.reserve(sizes.size());
  for (const std::size_t k : sizes) {
    auto one = make_gadget_supports(big_delta, big_r, k, k);
    if (one.empty()) continue;
    supports.push_back(std::move(one.front()));
  }
  return supports;
}

std::vector<BipartiteGraph> make_cycle_supports_for(
    const std::vector<std::size_t>& sizes) {
  std::vector<BipartiteGraph> supports;
  supports.reserve(sizes.size());
  for (const std::size_t half : sizes) {
    if (half < 2) continue;
    supports.push_back(make_bipartite_cycle(half));
  }
  return supports;
}

SweepGroupResult run_lift_sweep_group(const Problem& pi, std::size_t big_delta,
                                      std::size_t big_r, bool cycles,
                                      std::span<const SweepGroupMember> members,
                                      const LiftSweepOptions& options) {
  SweepGroupResult result;
  std::vector<std::size_t> sizes;
  for (const SweepGroupMember& m : members) {
    for (std::size_t k = m.lo; k <= m.hi; ++k) sizes.push_back(k);
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  result.sizes = sizes;

  const std::vector<BipartiteGraph> supports =
      cycles ? make_cycle_supports_for(sizes)
             : make_gadget_supports_for(big_delta, big_r, sizes);
  if (supports.size() != sizes.size()) return result;  // invalid size in list
  result.sweep = run_lift_sweep(pi, big_delta, big_r, supports, options);
  if (!result.sweep.lift_materialized) return result;
  result.lift_materialized = true;

  // Slice each member's range out of the union solve.
  std::map<std::size_t, Verdict> by_size;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    by_size[sizes[i]] = result.sweep.steps[i].verdict;
  }
  result.member_verdicts.reserve(members.size());
  for (const SweepGroupMember& m : members) {
    std::vector<Verdict> verdicts;
    verdicts.reserve(m.hi >= m.lo ? m.hi - m.lo + 1 : 0);
    for (std::size_t k = m.lo; k <= m.hi; ++k) verdicts.push_back(by_size.at(k));
    result.member_verdicts.push_back(std::move(verdicts));
  }
  return result;
}

}  // namespace slocal
