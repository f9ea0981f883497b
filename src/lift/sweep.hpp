// Lift solvability across a *sweep* of support graphs (EXPERIMENTS E3).
//
// Theorem 3.2 turns "is Π 0-round solvable on support G in Supported
// LOCAL?" into "does Ψ = lift_{Δ,r}(Π) admit a bipartite solution on G?",
// and the experiments answer it for a whole family of supports of growing
// size. The supports of such a family overlap heavily (nested gadget
// unions, growing cycles), so run_lift_sweep materializes Ψ once and — in
// incremental mode — feeds the family through one IncrementalLabelingSweep:
// shared edges and node constraints are encoded once, per-support deltas
// become assumption literals, and learned clauses carry over between sizes.
// Scratch mode re-encodes and re-solves every support independently; both
// modes return the same verdicts (the differential oracle asserts this),
// only the cost differs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/formalism/problem.hpp"
#include "src/graph/bipartite.hpp"
#include "src/sat/solver.hpp"
#include "src/util/budget.hpp"

namespace slocal {

/// Decides whether lift_{Δ,r}(pi) admits a bipartite solution on `g`, with
/// Δ, r read off g's maximum degrees (Theorem 3.2: this is exactly 0-round
/// white-algorithm solvability of pi on g in Supported LOCAL). kExhausted
/// when the budget trips, the lifted problem is too large to materialize,
/// or g's degrees are below pi's (lift_parameter_error refuses them) —
/// never a wrong kYes/kNo.
Verdict lift_solvable(const BipartiteGraph& g, const Problem& pi,
                      SearchBudget* budget = nullptr);

struct LiftSweepOptions {
  /// true: one IncrementalLabelingSweep across the family; false: encode
  /// and solve every support from scratch (the baseline E3 always ran).
  bool incremental = true;
  /// On a kNo step in incremental mode, re-solve under only the
  /// failed-assumption core to certify it (cost is usually trivial — the
  /// refutation is already learned).
  bool certify_cores = false;
  SearchBudget* budget = nullptr;
};

struct LiftSweepStep {
  Verdict verdict = Verdict::kExhausted;
  std::size_t edges = 0;
  /// Clauses encoded fresh for this support (incremental mode reuses the
  /// rest; scratch mode re-encodes everything, so new_clauses = total).
  std::size_t new_clauses = 0;
  std::size_t reused_guards = 0;
  std::uint64_t conflicts = 0;
  /// Size of the failed-assumption core on kNo (constrained nodes already
  /// in conflict); 0 in scratch mode, which has no core extraction.
  std::size_t core_nodes = 0;
  /// Verdict of the core re-solve when certify_cores is set (kNo =
  /// certified); kExhausted otherwise.
  Verdict core_check = Verdict::kExhausted;
  /// Core size after the certified re-solve's deletion-based minimization
  /// (<= core_nodes); 0 when the core was not certified.
  std::size_t core_nodes_minimized = 0;
  double wall_ms = 0.0;
};

struct LiftSweepResult {
  /// Non-empty iff (Δ, r) is outside Definition 3.1's range (see
  /// lift_parameter_error); nothing was built or solved then.
  std::string refused;
  /// false iff the sweep was refused or lift_{Δ,r}(pi) could not be
  /// materialized (steps then empty).
  bool lift_materialized = false;
  std::vector<LiftSweepStep> steps;  // one per support, same order
  std::size_t total_clauses = 0;     // distinct clauses encoded over the sweep
  std::uint64_t total_conflicts = 0;
  std::uint64_t total_propagations = 0;  // incremental mode: accumulated solver
  double total_wall_ms = 0.0;
  /// Incremental mode: the accumulated solver's core-probe counters at the
  /// end of the sweep (all zero in scratch mode).
  SatStats sat_stats;
};

/// Decides lift_{Δ,r}(pi)-solvability on every support in `supports`.
/// Incremental reuse keys edges and node constraints by node ids, so
/// supports sharing structure must agree on ids (the make_* families below
/// are laid out for this). Budget exhaustion marks the affected step(s)
/// kExhausted and keeps going — verdicts are never wrong, only missing.
LiftSweepResult run_lift_sweep(const Problem& pi, std::size_t big_delta,
                               std::size_t big_r,
                               std::span<const BipartiteGraph> supports,
                               const LiftSweepOptions& options = {});

/// Nested (Δ,r)-biregular supports for counts lo..hi: the k-th graph is the
/// disjoint union of k gadgets, gadget j being the complete bipartite graph
/// on white ids [j·r, (j+1)·r) × black ids [j·Δ, (j+1)·Δ). Every graph is a
/// prefix of the next, so an incremental sweep reuses all of it.
std::vector<BipartiteGraph> make_gadget_supports(std::size_t big_delta,
                                                 std::size_t big_r, std::size_t lo,
                                                 std::size_t hi);

/// Growing bipartite cycles (Δ = r = 2) of half-lengths lo..hi (lo >= 2).
/// Consecutive cycles share all path edges but close at a different black
/// node, exercising the guarded (non-nested) reuse case.
std::vector<BipartiteGraph> make_cycle_supports(std::size_t lo, std::size_t hi);

/// Supports for an arbitrary ascending size list instead of a contiguous
/// range. Each graph is laid out with exactly the same node ids as its
/// counterpart in the contiguous families above, so an incremental sweep
/// over the union of several overlapping ranges still reuses every shared
/// edge and node constraint.
std::vector<BipartiteGraph> make_gadget_supports_for(
    std::size_t big_delta, std::size_t big_r, const std::vector<std::size_t>& sizes);
std::vector<BipartiteGraph> make_cycle_supports_for(
    const std::vector<std::size_t>& sizes);

/// One member of a sweep group: an inclusive support-size range over the
/// group's shared family kind.
struct SweepGroupMember {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

struct SweepGroupResult {
  /// false iff the sweep was refused (sweep.refused says why) or
  /// lift_{Δ,r}(pi) could not be materialized.
  bool lift_materialized = false;
  /// Sorted, deduplicated union of every member's sizes; `sweep.steps`
  /// aligns with this list.
  std::vector<std::size_t> sizes;
  LiftSweepResult sweep;
  /// Per member, the verdicts for its own lo..hi range in ascending order —
  /// slices of the union solve, so overlapping members share every solve.
  std::vector<std::vector<Verdict>> member_verdicts;
};

/// Several sweeps over the same problem, lift targets, and family kind
/// (gadgets or cycles, possibly with different lo..hi ranges) answered
/// through ONE incremental encoding; perfbench's traced serve-mix uses it
/// as the in-process counterpart of a write sweep. The union of the
/// requested sizes is solved once — each size is a single
/// assumption-guarded solve — and every member's verdict list is sliced
/// out of the shared result. Budget exhaustion marks the affected sizes
/// kExhausted exactly like run_lift_sweep; verdicts are never wrong, only
/// missing.
SweepGroupResult run_lift_sweep_group(const Problem& pi, std::size_t big_delta,
                                      std::size_t big_r, bool cycles,
                                      std::span<const SweepGroupMember> members,
                                      const LiftSweepOptions& options = {});

}  // namespace slocal
