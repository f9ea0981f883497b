// CNF encoding of the edge-labeling existence question, solved by the
// in-tree CDCL solver.
//
// Variables x_{e,l} select one label per edge. Per constrained node, *bad
// prefixes* are blocked: a DFS over the node's incident edges emits a
// clause for every minimal partial assignment whose label multiset cannot
// extend to a configuration of the node's constraint. Any total assignment
// avoiding all blocked prefixes therefore satisfies every constrained node.
//
// Two modes share that core:
//  * encode_bipartite_labeling — one graph, one CNF, solved from scratch;
//  * IncrementalLabelingSweep — a family of supports encoded into ONE
//    solver. Edge variables are keyed by endpoint ids and node blocking
//    clauses are guarded by activation literals, so consecutive supports of
//    a sweep (E3 lift solvability across support sizes) reuse all shared
//    structure and every learned clause instead of re-encoding from scratch.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/formalism/problem.hpp"
#include "src/graph/bipartite.hpp"
#include "src/graph/graph.hpp"
#include "src/sat/solver.hpp"
#include "src/util/budget.hpp"

namespace slocal {

struct SatLabelingStats {
  std::size_t variables = 0;
  std::size_t clauses = 0;
  std::uint64_t conflicts = 0;
  SatResult result = SatResult::kUnknown;
};

/// An encoded labeling instance: the solver plus the per-edge label
/// variables its model decodes through.
struct LabelingCnf {
  SatSolver solver;
  std::vector<std::vector<Var>> edge_label_vars;  // [edge][label]
  std::size_t clause_count = 0;
};

/// Builds the CNF for "pi is solvable on g". The bad-prefix DFS charges
/// `budget` (if given) per node; a tripped budget aborts the encoding and
/// returns nullopt — a partial encoding must never be solved, since missing
/// blocking clauses would make kSat unsound. log_proof arms the solver's
/// DRAT trace before the first clause is added (certificate emission).
std::optional<LabelingCnf> encode_bipartite_labeling(const BipartiteGraph& g,
                                                     const Problem& pi,
                                                     SearchBudget* budget = nullptr,
                                                     bool log_proof = false);

/// Reads the edge labeling out of a solver in the kSat state.
std::vector<Label> decode_bipartite_labeling(const LabelingCnf& cnf,
                                             std::size_t alphabet);

/// SAT-based equivalent of solve_bipartite_labeling. conflict_budget = 0
/// means run to completion; `budget` adds deadline/cancel/shared limits
/// (tripping reports kUnknown in stats->result, never a wrong answer).
/// Returns a labeling iff satisfiable.
std::optional<std::vector<Label>> solve_bipartite_labeling_sat(
    const BipartiteGraph& g, const Problem& pi, std::uint64_t conflict_budget = 0,
    SatLabelingStats* stats = nullptr, SearchBudget* budget = nullptr);

/// SAT-based half-edge labeling on a plain graph (non-bipartite solving via
/// the incidence graph; see solve_graph_halfedge_labeling).
std::optional<std::vector<Label>> solve_graph_halfedge_labeling_sat(
    const Graph& g, const Problem& pi, std::uint64_t conflict_budget = 0,
    SatLabelingStats* stats = nullptr, SearchBudget* budget = nullptr);

/// Incremental decider for "pi is solvable on g" over a *sweep* of support
/// graphs sharing structure (nested gadget unions, growing cycles, ...).
///
/// One SatSolver accumulates the whole family:
///  * an edge is identified by its endpoint ids (white, black); its
///    exactly-one label selection clauses are encoded once, unguarded —
///    they are valid in every support containing that edge, and vacuous
///    (free variables) in supports that do not;
///  * a constrained node instance is identified by (side, incident edge
///    set); its bad-prefix blocking clauses are emitted once, each extended
///    with the negation of a fresh *guard* variable. Assuming the guard
///    activates the node's constraint; leaving it free retracts it.
///
/// Solving support G then means solve_under_assumptions(guards of G's
/// constrained nodes). Learned clauses are consequences of the guarded
/// clause set, hence globally valid — they persist across the sweep, which
/// is where the speedup over from-scratch re-encoding comes from. An UNSAT
/// answer carries the solver's failed-assumption core mapped back to the
/// nodes of G whose constraints already conflict (check_last_core re-solves
/// under only those guards to certify the core).
class IncrementalLabelingSweep {
 public:
  explicit IncrementalLabelingSweep(Problem pi);

  /// A constrained node of a step's support ((side, node id) pair).
  struct NodeRef {
    bool white = true;
    NodeId node = 0;
  };

  struct Step {
    /// kYes (labels attached) / kNo (core attached) are definitive;
    /// kExhausted means the budget tripped during encoding or solving.
    Verdict verdict = Verdict::kExhausted;
    std::optional<std::vector<Label>> labels;  // per edge of the step graph
    std::vector<NodeRef> core;  // on kNo: nodes of the failed-assumption core
    SatLabelingStats stats;     // conflicts = this step's conflicts only
    std::size_t new_clauses = 0;   // clauses encoded fresh for this step
    std::size_t new_guards = 0;    // node instances encoded fresh
    std::size_t reused_guards = 0;  // node instances reused from earlier steps
  };

  /// Decides pi-solvability on `g`, reusing everything shared with earlier
  /// supports. Budget exhaustion yields kExhausted, never a wrong verdict,
  /// and leaves the sweep reusable (a partially encoded node instance is
  /// abandoned, its guard never assumed).
  Step solve_support(const BipartiteGraph& g, SearchBudget* budget = nullptr);

  /// Certifies the most recent kNo step: re-solves assuming ONLY its
  /// failed-assumption core. kNo confirms the core is genuinely
  /// contradictory, and the core is then shrunk in place with
  /// SatSolver::minimize_core (last_core() reflects the shrink); kYes
  /// refutes it (a solver bug); kExhausted = budget.
  Verdict check_last_core(SearchBudget* budget = nullptr);

  /// Guard literals of the most recent kNo step's core (minimized once
  /// check_last_core has confirmed it).
  std::span<const Lit> last_core() const { return last_core_; }

  const Problem& problem() const { return pi_; }
  const SatSolver& solver() const { return solver_; }
  std::size_t clause_count() const { return clause_count_; }
  std::size_t guard_count() const { return guards_.size(); }
  std::size_t edge_count() const { return edge_vars_.size(); }

 private:
  using EdgeKey = std::uint64_t;  // white id << 32 | black id
  static EdgeKey edge_key(NodeId w, NodeId b) {
    return (static_cast<std::uint64_t>(w) << 32) | b;
  }
  const std::vector<Var>& edge_vars(NodeId w, NodeId b);

  /// Ensures every edge/guard of `g` is encoded; fills the guard
  /// assumptions and their owning nodes. False iff `budget` tripped.
  bool encode_support(const BipartiteGraph& g, std::vector<Lit>* assumptions,
                      std::vector<NodeRef>* owners, Step* step,
                      SearchBudget* budget);

  Problem pi_;
  SatSolver solver_;
  std::size_t clause_count_ = 0;
  std::unordered_map<EdgeKey, std::vector<Var>> edge_vars_;
  /// Node constraint instance (side, sorted incident edge keys) -> guard.
  std::map<std::pair<bool, std::vector<EdgeKey>>, Var> guards_;
  std::vector<Lit> last_core_;
};

}  // namespace slocal
