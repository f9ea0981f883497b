// Differential-testing oracle for the bipartite labeling deciders.
//
// The framework's central question — "does Ψ admit a bipartite solution on
// G?" — is answered by four independent engines: the incremental CDCL
// sweep (IncrementalLabelingSweep, assumption literals per support), the
// from-scratch CDCL path (solve_bipartite_labeling_sat), the backtracking
// labeling solver (solve_bipartite_labeling), and, at small sizes, plain
// brute-force enumeration over all label assignments. Lower
// bounds hinge on trusting UNSAT answers, so this harness cross-checks all
// of them on seeded random (problem, support-family) instances, validates
// every claimed solution with check_bipartite_labeling, and requires each
// incremental UNSAT to come with a failed-assumption core that re-solves to
// UNSAT on its own (IncrementalLabelingSweep::check_last_core).
//
// The harness is a library (used by diff_oracle_test.cpp and reusable from
// fuzzers): run_diff_oracle is a pure function of its options, so a failure
// reproduces from the seed alone.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/formalism/problem.hpp"
#include "src/graph/bipartite.hpp"
#include "src/util/rng.hpp"

namespace slocal {

struct DiffOracleOptions {
  /// Seeded (problem, support) instances to cross-check; generation
  /// continues until at least this many supports have been decided.
  int instances = 200;
  std::uint64_t seed = 1;
  /// Brute-force enumeration runs only when alphabet^edges stays at or
  /// below this; larger instances are still cross-checked by the other
  /// three engines.
  std::uint64_t max_brute_assignments = 250'000;
  /// Supports per random problem, fed through ONE incremental sweep so
  /// later supports exercise clause/guard reuse and learned-clause carry.
  std::size_t supports_per_problem = 3;
};

struct DiffOracleReport {
  int instances = 0;        // supports cross-checked
  int yes = 0, no = 0;      // agreed verdicts
  int brute_checked = 0;    // instances additionally decided by brute force
  int cores_certified = 0;  // incremental UNSAT cores re-solved to kNo
  int sequences = 0;        // sequences cross-checked across RE-cache modes
  int warm_steps = 0;       // warm-run steps answered from the cache (0 DFS)
  /// Human-readable engine disagreements / invalid witnesses; empty = pass.
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

/// Cross-checks one support family against all four engines, reusing one
/// incremental sweep across the family. Appends to `report`.
void diff_check_family(const Problem& pi, std::span<const BipartiteGraph> supports,
                       std::uint64_t max_brute_assignments, DiffOracleReport* report);

/// Runs the full seeded-random campaign described in the options.
DiffOracleReport run_diff_oracle(const DiffOracleOptions& options = {});

/// Seeded random problem over single-letter label names ("A".."P"), with
/// constraint density drawn per side so the corpus covers dense and sparse
/// instances. nullopt when a drawn constraint came out empty. Shared with
/// the canonicalization property tests so both harnesses walk one corpus.
std::optional<Problem> random_problem(std::size_t dw, std::size_t db,
                                      std::size_t alphabet, Rng& rng);

/// Cross-checks `verify_lower_bound_sequence` across RE-cache modes: cache
/// off, cache on (cold), and cache on (warm, second run over the same
/// cache), each at threads=1 and threads=4. Every run must render a
/// byte-identical SequenceReport (to_string carries the verdicts and sizes;
/// per-step node counters — the only permitted difference — are checked
/// structurally instead: once every RE application succeeded, warm steps
/// must be answered from the cache with 0 RE DFS nodes). When `cache_file`
/// is non-empty the warm cache is additionally saved there, reloaded into a
/// fresh cache, and the sequence re-verified from the reloaded copy to pin
/// the persistence round-trip. Appends to `report`.
void diff_check_sequence_cache(const std::string& tag,
                               const std::vector<Problem>& problems,
                               const std::string& cache_file,
                               DiffOracleReport* report);

}  // namespace slocal
