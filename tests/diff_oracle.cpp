#include "tests/diff_oracle.hpp"

#include <optional>

#include "src/graph/generators.hpp"
#include "src/lift/sweep.hpp"
#include "src/re/re_cache.hpp"
#include "src/re/sequence.hpp"
#include "src/solver/cnf_encoding.hpp"
#include "src/solver/edge_labeling.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/rng.hpp"

namespace slocal {

namespace {

/// Enumerates every assignment of alphabet labels to g's edges; nullopt
/// when alphabet^edges exceeds `cap` (the caller then relies on the three
/// search engines cross-checking each other).
std::optional<bool> brute_force_solvable(const BipartiteGraph& g, const Problem& pi,
                                         std::uint64_t cap) {
  const std::uint64_t alphabet = pi.alphabet_size();
  std::uint64_t count = 1;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (count > cap / alphabet) return std::nullopt;
    count *= alphabet;
  }
  std::vector<Label> labels(g.edge_count(), 0);
  for (std::uint64_t code = 0; code < count; ++code) {
    std::uint64_t rest = code;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      labels[e] = static_cast<Label>(rest % alphabet);
      rest /= alphabet;
    }
    if (check_bipartite_labeling(g, pi, labels)) return true;
  }
  return false;
}

}  // namespace

/// A random problem in the zero_round_test corpus style: degrees and
/// alphabet small enough that every engine (including brute force on the
/// smaller supports) finishes instantly, constraints dense enough that both
/// verdicts occur often. nullopt when a constraint came out empty.
std::optional<Problem> random_problem(std::size_t dw, std::size_t db,
                                      std::size_t alphabet, Rng& rng) {
  LabelRegistry reg;
  for (std::size_t l = 0; l < alphabet; ++l) {
    reg.intern(std::string(1, static_cast<char>('A' + l)));
  }
  Constraint white(dw), black(db);
  const auto fill = [&](Constraint& c, std::size_t d, double p) {
    for_each_multiset(alphabet, d, [&](const std::vector<std::size_t>& pick) {
      if (rng.chance(p)) {
        std::vector<Label> labels;
        labels.reserve(pick.size());
        for (const std::size_t q : pick) labels.push_back(static_cast<Label>(q));
        c.add(Configuration(std::move(labels)));
      }
      return true;
    });
  };
  // Density drawn per constraint: dense pairs are mostly solvable, sparse
  // ones mostly not, so the corpus exercises both verdicts heavily.
  fill(white, dw, 0.2 + 0.6 * rng.uniform());
  fill(black, db, 0.2 + 0.6 * rng.uniform());
  if (white.empty() || black.empty()) return std::nullopt;
  return Problem("diff-oracle", reg, white, black);
}

namespace {

/// A support family for a (dw, db)-degree problem. Kinds 0/1 share node ids
/// across the family (nested gadgets, growing cycles) so the incremental
/// sweep reuses structure; kind 2 is independent random biregular graphs,
/// exercising fresh-guard encoding inside a warm solver.
std::vector<BipartiteGraph> random_family(std::size_t dw, std::size_t db,
                                          std::size_t count, Rng& rng) {
  const std::uint64_t kinds = (dw == 2 && db == 2) ? 3 : 2;
  switch (rng.below(kinds)) {
    case 0:
      return make_gadget_supports(dw, db, 1, count);
    case 1: {
      std::vector<BipartiteGraph> family;
      const std::size_t m = 1 + static_cast<std::size_t>(rng.below(2));
      for (std::size_t i = 0; i < count; ++i) {
        auto g = random_biregular(db * m, dw, dw * m, db, rng);
        if (g.has_value()) family.push_back(std::move(*g));
      }
      return family;
    }
    default:
      return make_cycle_supports(2, 1 + count);
  }
}

}  // namespace

std::string DiffOracleReport::summary() const {
  std::string s = "instances=" + std::to_string(instances) +
                  " yes=" + std::to_string(yes) + " no=" + std::to_string(no) +
                  " brute_checked=" + std::to_string(brute_checked) +
                  " cores_certified=" + std::to_string(cores_certified) +
                  " sequences=" + std::to_string(sequences) +
                  " warm_steps=" + std::to_string(warm_steps) +
                  " failures=" + std::to_string(failures.size());
  for (const std::string& f : failures) s += "\n  " + f;
  return s;
}

void diff_check_family(const Problem& pi, std::span<const BipartiteGraph> supports,
                       std::uint64_t max_brute_assignments, DiffOracleReport* report) {
  IncrementalLabelingSweep sweep(pi);
  for (std::size_t si = 0; si < supports.size(); ++si) {
    const BipartiteGraph& g = supports[si];
    ++report->instances;
    bool agreed = true;
    const auto fail = [&](const std::string& what) {
      report->failures.push_back("support " + std::to_string(si) + " (" +
                                 std::to_string(g.edge_count()) + " edges) of " +
                                 pi.to_string() + ": " + what);
      agreed = false;
    };

    // Engine 1 — backtracking labeling solver (the auditable reference).
    bool exhausted = false;
    const auto backtrack = solve_bipartite_labeling(g, pi, {}, &exhausted);
    if (exhausted) {
      fail("backtracking solver exhausted its default budget");
      continue;
    }
    const bool expected = backtrack.has_value();
    if (expected && !check_bipartite_labeling(g, pi, *backtrack)) {
      fail("backtracking solver returned an invalid labeling");
    }

    // Engine 2 — from-scratch CDCL.
    SatLabelingStats stats;
    const auto scratch = solve_bipartite_labeling_sat(g, pi, 0, &stats);
    if (stats.result == SatResult::kUnknown) {
      fail("from-scratch CDCL returned unknown without a budget");
    } else if (scratch.has_value() != expected) {
      fail("from-scratch CDCL disagrees with backtracking");
    } else if (scratch.has_value() && !check_bipartite_labeling(g, pi, *scratch)) {
      fail("from-scratch CDCL model decodes to an invalid labeling");
    }

    // Engine 3 — incremental CDCL (one solver shared across the family).
    const IncrementalLabelingSweep::Step step = sweep.solve_support(g);
    if (step.verdict == Verdict::kExhausted) {
      fail("incremental CDCL returned exhausted without a budget");
    } else if ((step.verdict == Verdict::kYes) != expected) {
      fail("incremental CDCL disagrees with backtracking");
    } else if (step.verdict == Verdict::kYes) {
      if (!step.labels.has_value() || !check_bipartite_labeling(g, pi, *step.labels)) {
        fail("incremental CDCL model decodes to an invalid labeling");
      }
    } else {
      // Every incremental UNSAT must carry a verifiable core: re-solving
      // under only the failed assumptions must still refute.
      if (sweep.check_last_core() != Verdict::kNo) {
        fail("incremental CDCL failed-assumption core did not re-solve to UNSAT");
      } else {
        ++report->cores_certified;
      }
    }

    // Engine 4 — brute-force enumeration (small sizes only).
    const auto brute = brute_force_solvable(g, pi, max_brute_assignments);
    if (brute.has_value()) {
      ++report->brute_checked;
      if (*brute != expected) fail("brute-force enumeration disagrees");
    }

    if (agreed) (expected ? report->yes : report->no)++;
  }
}

DiffOracleReport run_diff_oracle(const DiffOracleOptions& options) {
  DiffOracleReport report;
  Rng rng(options.seed);
  while (report.instances < options.instances) {
    const std::size_t dw = 2 + static_cast<std::size_t>(rng.below(2));
    const std::size_t db = 2 + static_cast<std::size_t>(rng.below(2));
    const std::size_t alphabet = 2 + static_cast<std::size_t>(rng.below(2));
    const auto pi = random_problem(dw, db, alphabet, rng);
    if (!pi.has_value()) continue;
    const auto family = random_family(dw, db, options.supports_per_problem, rng);
    if (family.empty()) continue;
    diff_check_family(*pi, family, options.max_brute_assignments, &report);
  }
  return report;
}

void diff_check_sequence_cache(const std::string& tag,
                               const std::vector<Problem>& problems,
                               const std::string& cache_file,
                               DiffOracleReport* report) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ++report->sequences;
    const auto fail = [&](const std::string& what) {
      report->failures.push_back("sequence " + tag + " (threads=" +
                                 std::to_string(threads) + "): " + what);
    };

    REOptions base;
    base.threads = threads;
    REStats off_stats;
    base.stats = &off_stats;
    const SequenceReport off = verify_lower_bound_sequence(problems, base);

    RECache cache;
    REOptions with_cache = base;
    with_cache.cache = &cache;
    REStats cold_stats;
    with_cache.stats = &cold_stats;
    const SequenceReport cold = verify_lower_bound_sequence(problems, with_cache);
    REStats warm_stats;
    with_cache.stats = &warm_stats;
    const SequenceReport warm = verify_lower_bound_sequence(problems, with_cache);

    // The rendered reports carry every verdict and size; they must be
    // byte-identical across all cache modes. Node counters (the only
    // allowed difference) are checked structurally below.
    if (off.to_string() != cold.to_string()) {
      fail("cache-off vs cache-cold reports differ:\n" + off.to_string() +
           "vs\n" + cold.to_string());
    }
    if (off.to_string() != warm.to_string()) {
      fail("cache-off vs cache-warm reports differ:\n" + off.to_string() +
           "vs\n" + warm.to_string());
    }

    // A cold run starts empty, so its first step must miss; steps repeating
    // an earlier step's renaming class legitimately hit within the run
    // (that intra-run short-circuit is the point of cross-step caching), so
    // cold search effort is bounded by — not equal to — cache-off effort.
    if (!cold.steps.empty() && cold_stats.cache_misses == 0) {
      fail("cold run never missed");
    }
    if (cold_stats.dfs_nodes > off_stats.dfs_nodes) {
      fail("cold run searched more than cache-off");
    }

    // Once every RE application succeeded, the warm run must answer every
    // step from the cache without any RE search at all.
    bool all_re_ok = true;
    for (const SequenceStepReport& step : off.steps) {
      all_re_ok = all_re_ok && step.re_computed;
    }
    if (all_re_ok) {
      if (warm_stats.dfs_nodes != 0) fail("warm run ran an RE search");
      for (const SequenceStepReport& step : warm.steps) {
        if (!step.re_cache_hit || step.re_dfs_nodes != 0) {
          fail("warm step " + std::to_string(step.index) +
               " was not answered from the cache");
        } else {
          ++report->warm_steps;
        }
      }
    }

    // Persistence round-trip: the warm cache must survive save + load and
    // answer the whole sequence from disk state alone.
    if (threads == 1 && !cache_file.empty() && all_re_ok) {
      std::string error;
      if (!cache.save(cache_file, &error)) {
        fail("cache save failed: " + error);
        continue;
      }
      RECache reloaded;
      if (!reloaded.load(cache_file, &error)) {
        fail("cache load failed: " + error);
        continue;
      }
      REOptions from_disk = base;
      from_disk.cache = &reloaded;
      REStats disk_stats;
      from_disk.stats = &disk_stats;
      const SequenceReport persisted =
          verify_lower_bound_sequence(problems, from_disk);
      if (off.to_string() != persisted.to_string()) {
        fail("reloaded-cache report differs from cache-off");
      }
      if (disk_stats.dfs_nodes != 0) {
        fail("reloaded cache did not answer every step");
      }
    }
  }
}

}  // namespace slocal
