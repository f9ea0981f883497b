// The lift construction (Definition 3.1).
//
// Given a problem Π with white configurations of size Δ' and black
// configurations of size r', and targets Δ >= Δ', r >= r',
// Π̄ = lift_{Δ,r}(Π) has:
//   * labels: non-empty right-closed subsets of Σ(Π) w.r.t. Π's *black*
//     diagram ("label-sets"),
//   * black constraint: multisets {L_1..L_r} such that for EVERY r'-subset
//     and EVERY choice of one label per set, the choice is in C_B(Π),
//   * white constraint: multisets {L_1..L_Δ} such that for EVERY Δ'-subset
//     there EXISTS a choice in C_W(Π).
//
// Theorem 3.2: Π is 0-round solvable by a white algorithm in Supported
// LOCAL on a (Δ,r)-biregular support G iff lift_{Δ,r}(Π) has a bipartite
// solution on G. LiftedProblem keeps the constraints implicit (the ∀/∃
// conditions are evaluated on demand) and can materialize an explicit
// Problem when the counts are small.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/formalism/diagram.hpp"
#include "src/formalism/problem.hpp"
#include "src/util/bitset.hpp"

namespace slocal {

/// Definition 3.1's parameter range: lift_{Δ,r}(Π) exists only for
/// Δ >= Π.white_degree() and r >= Π.black_degree(). Returns why (Δ, r) is
/// refused, or "" when it is in range. Every entry point that takes lift
/// targets from its caller (slocal_tool, slocal_serve, run_lift_sweep,
/// lift_solvable, the lift-unsat certificate emitter) checks this first, in
/// every build type.
std::string lift_parameter_error(const Problem& base, std::size_t big_delta,
                                 std::size_t big_r);

class LiftedProblem {
 public:
  /// Builds lift_{Δ,r}(Π). Requires lift_parameter_error(Π, Δ, r) == ""
  /// and alphabet <= SmallBitset capacity.
  LiftedProblem(Problem base, std::size_t big_delta, std::size_t big_r);

  const Problem& base() const { return base_; }
  std::size_t big_delta() const { return big_delta_; }
  std::size_t big_r() const { return big_r_; }

  /// The label-sets, i.e. the alphabet of the lifted problem. Index into
  /// this vector is the lifted label.
  std::span<const SmallBitset> label_sets() const { return label_sets_; }

  /// Index of a right-closed set in label_sets(); nullopt if `set` is not
  /// right-closed or empty.
  std::optional<std::size_t> index_of(SmallBitset set) const;

  /// White condition of Definition 3.1 on an arbitrary multiset of lifted
  /// labels of size big_delta().
  bool white_ok(std::span<const std::size_t> lifted_labels) const;

  /// Black condition of Definition 3.1 on a multiset of size big_r().
  bool black_ok(std::span<const std::size_t> lifted_labels) const;

  /// Partial-feasibility tests used by backtracking solvers: can the given
  /// partial multiset (size <= degree) possibly extend to a satisfying one?
  /// These are sound prunes (never reject an extendable partial).
  bool white_partial_ok(std::span<const std::size_t> lifted_labels) const;
  bool black_partial_ok(std::span<const std::size_t> lifted_labels) const;

  /// Materializes the explicit Problem (enumerates all multisets); nullopt
  /// if either constraint would exceed `max_configurations`.
  std::optional<Problem> materialize(std::uint64_t max_configurations = 2'000'000) const;

 private:
  /// EXISTS choice over the given label-sets in constraint c?
  bool exists_choice(const Constraint& c, std::span<const SmallBitset> sets) const;
  /// ALL choices over the given label-sets in constraint c?
  bool all_choices(const Constraint& c, std::span<const SmallBitset> sets) const;

  Problem base_;
  Diagram black_diagram_;
  std::size_t big_delta_;
  std::size_t big_r_;
  std::vector<SmallBitset> label_sets_;
};

}  // namespace slocal
