// perfbench_workloads — the workload side of the end-to-end benchmark.
//
// One process runs one workload for a fixed wall-clock window and prints
// one JSON line of raw measurements (per-op latencies, op classes, CPU,
// peak RSS, set-up time, per-layer counters). perfbench/run.py turns that
// into the reported metrics; the statistics live there so they can be unit
// tested without a build.
//
//   perfbench_workloads --workload=<re-chain|lift-refute|serve-mix|sim-luby>
//                       --seed=N --seconds=S [--trace] [--setup-only] [--smoke]
//                       [--serve-bin=PATH] [--work-dir=DIR]
//
// Every workload is a closed loop and calls the layers with threads = 1
// (the way slocal_serve runs each request). In three workloads every timed
// op is the same composite job on seeded inputs, so the median and the tail
// come from one population; serve-mix fixes its request mix so the median
// lands in the read class and the tail in the write class.
//
// --trace splits the window in two: an untraced half (for the overhead
// ratio) and a traced half that records spans around every public call
// made from this file — name, start, end, parent, op id — kept in memory
// and written to <work-dir>/trace-<workload>.json at the end. Layer self
// times and counters come from the traced half only.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/graph/generators.hpp"
#include "src/lift/lift.hpp"
#include "src/lift/sweep.hpp"
#include "src/net/client.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/re_cache.hpp"
#include "src/re/round_elimination.hpp"
#include "src/re/sequence.hpp"
#include "src/sim/algorithms.hpp"
#include "src/sim/fast/csr_graph.hpp"
#include "src/sim/fast/csr_network.hpp"
#include "src/solver/cnf_encoding.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace slocal;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent stream per (seed, purpose, index).
Rng stream(std::uint64_t seed, std::uint64_t salt, std::uint64_t index = 0) {
  return Rng(mix64(mix64(seed ^ (salt * 0x2545f4914f6cdd1dULL)) + index));
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_workloads: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------- tracing

struct Span {
  const char* name;
  double start_ms;
  double end_ms;
  int parent;  // index into the same tracer, -1 for a root
  std::uint64_t op;
};

/// Spans of one thread, kept in memory until the run ends.
class Tracer {
 public:
  int open(const char* name, std::uint64_t op) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, ms_since(g_start), 0.0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ms = ms_since(g_start);
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; free when tracing is off (tracer == nullptr).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), index_(tracer ? tracer->open(name, op) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Per-op layer counters, summed over the traced ops.
using Counters = std::map<std::string, double>;

// ------------------------------------------------------------- process info

double cpu_seconds_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// A /proc/<pid>/status field in kB ("VmHWM", "VmRSS"); -1 if unreadable.
double proc_status_kb(const std::string& pid, const char* field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::strtod(line.c_str() + key.size(), nullptr);
  }
  return -1.0;
}

/// utime + stime of a whole process (all threads), in seconds.
double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command: state is field 3; utime/stime are 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ------------------------------------------------------------ measurement

struct OpSample {
  double ms = 0.0;
  bool ok = false;
  char cls = 'o';  // 'o' op, 'r' read, 'm' memo read, 'w' write
};

struct Phase {
  std::vector<OpSample> ops;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Runs `op(index)` back to back for `seconds` of wall time (closed loop).
/// The index continues from `first` so traced and untraced ops draw
/// different seeded inputs.
template <typename Op>
Phase closed_loop(double seconds, std::uint64_t first, Op&& op) {
  Phase phase;
  const double cpu0 = cpu_seconds_self();
  const auto t0 = Clock::now();
  for (std::uint64_t i = first; ms_since(t0) < seconds * 1000.0; ++i) {
    phase.ops.push_back(op(i));
  }
  phase.wall_s = ms_since(t0) / 1000.0;
  phase.cpu_s = cpu_seconds_self() - cpu0;
  return phase;
}

double median_ms(std::vector<OpSample> ops, char cls = 0) {
  std::vector<double> v;
  for (const OpSample& s : ops) {
    if (cls == 0 || s.cls == cls) v.push_back(s.ms);
  }
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool smoke = false;
  std::string serve_bin;
  std::string work_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--workload")) {
      args.workload = *v;
    } else if (auto v = value("--seed")) {
      args.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seconds")) {
      args.seconds = std::strtod(v->c_str(), nullptr);
    } else if (auto v = value("--serve-bin")) {
      args.serve_bin = *v;
    } else if (auto v = value("--work-dir")) {
      args.work_dir = *v;
    } else if (a == "--trace") {
      args.trace = true;
    } else if (a == "--setup-only") {
      args.setup_only = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else {
      die("unknown argument '" + a + "'");
    }
  }
  if (args.seconds <= 0.0) die("--seconds must be positive");
  return args;
}

// ----------------------------------------------------------- JSON output

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Report {
  double setup_s = 0.0;
  Phase timed;          // untraced window (the end-to-end numbers)
  double peak_rss_mb = 0.0;
  Counters layer;       // per-layer metrics (trace runs only)
  std::map<std::string, std::string> detail;  // facts printed for the reader
};

void print_report(const Args& args, const Report& r) {
  std::string out = "{\"workload\": \"" + args.workload + "\", \"seed\": " +
                    std::to_string(args.seed) + ", \"setup_s\": " + json_number(r.setup_s);
  if (!args.setup_only) {
    out += ", \"wall_s\": " + json_number(r.timed.wall_s) +
           ", \"cpu_s\": " + json_number(r.timed.cpu_s) +
           ", \"peak_rss_mb\": " + json_number(r.peak_rss_mb) + ", \"lat_ms\": [";
    std::string cls, ok;
    for (std::size_t i = 0; i < r.timed.ops.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_number(r.timed.ops[i].ms);
      cls += r.timed.ops[i].cls;
      ok += r.timed.ops[i].ok ? '1' : '0';
    }
    out += "], \"cls\": \"" + cls + "\", \"ok\": \"" + ok + "\", \"layer\": {";
    bool first = true;
    for (const auto& [name, value] : r.layer) {
      out += (first ? "\"" : ", \"") + name + "\": " + json_number(value);
      first = false;
    }
    out += "}, \"detail\": {";
    first = true;
    for (const auto& [name, value] : r.detail) {
      out += (first ? "\"" : ", \"") + name + "\": \"" + value + "\"";
      first = false;
    }
    out += "}";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
}

// ------------------------------------------------------ trace attribution

/// Spans of every traced op, merged from the per-thread tracers.
struct TraceSet {
  std::vector<const Tracer*> tracers;

  std::size_t span_count() const {
    std::size_t n = 0;
    for (const Tracer* t : tracers) n += t->spans().size();
    return n;
  }

  /// Median over root "op" spans of (op wall − children wall) / op wall:
  /// the share of an op that no layer span claims.
  double unattributed_share() const {
    std::vector<double> shares;
    for (const Tracer* t : tracers) {
      const std::vector<Span>& spans = t->spans();
      std::vector<double> child_ms(spans.size(), 0.0);
      for (const Span& s : spans) {
        if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
      }
      for (std::size_t i = 0; i < spans.size(); ++i) {
        if (std::strcmp(spans[i].name, "op") != 0) continue;
        const double wall = spans[i].end_ms - spans[i].start_ms;
        if (wall > 0.0) shares.push_back((wall - child_ms[i]) / wall);
      }
    }
    if (shares.empty()) return 0.0;
    std::sort(shares.begin(), shares.end());
    return shares[shares.size() / 2];
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    // Chrome trace-event JSON (complete events), viewable in Perfetto.
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (std::size_t tid = 0; tid < tracers.size(); ++tid) {
      const std::vector<Span>& spans = tracers[tid]->spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %llu, "
                     "\"span\": %zu, \"parent\": %d}}",
                     first ? "" : ",\n", s.name, tid, s.start_ms * 1000.0,
                     (s.end_ms - s.start_ms) * 1000.0,
                     static_cast<unsigned long long>(s.op), i, s.parent);
        first = false;
      }
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }
};

/// The names every traced run reports, so a layer a workload never calls
/// reads 0 there (the "never moves" predictions are checked on these).
const char* const kLayerNames[] = {
    "re.harden_ms", "re.dominate_ms", "re.relax_ms", "re.glue_ms", "re.dfs_nodes",
    "re.extendable_calls", "re.partials_deduped", "formalism.relaxation_ms",
    "formalism.relaxation_nodes", "formalism.canonicalize_ms", "lift.materialize_ms",
    "solver.decide_ms", "solver.sweep_ms", "solver.new_clauses", "sat.conflicts",
    "sat.propagations", "sat.inprocess_runs", "sat.inprocess_yield", "cert.emit_ms",
    "cert.check_ms", "serve.read_p50_ms", "serve.write_p50_ms",
    "serve.cache_hit_ratio", "serve.memo_hit_ratio", "serve.admission_reject_ratio",
    "net.ping_rtt_ms", "net.batch_wait_ms", "graph.gen_ms", "sim.run_ms",
    "sim.rounds", "sim.messages", "sim.half_edge_rounds_per_s",
    "sim.bytes_per_half_edge", "trace.overhead_ratio", "trace.unattributed_share",
    "trace.spans"};

/// Divides the summed counters by the traced ops, fills the shared trace.*
/// metrics, and zero-fills layers the workload never called. report.timed
/// holds the untraced half on entry.
void finish_layers(Report& report, Counters sums, const TraceSet& trace,
                   const Phase& traced, const std::string& trace_path) {
  const double n = static_cast<double>(std::max<std::size_t>(1, traced.ops.size()));
  for (auto& [name, value] : sums) report.layer[name] = value / n;
  for (const char* name : kLayerNames) report.layer.emplace(name, 0.0);
  const double base = median_ms(report.timed.ops);
  report.layer["trace.overhead_ratio"] = base > 0.0 ? median_ms(traced.ops) / base : 0.0;
  report.layer["trace.unattributed_share"] = trace.unattributed_share();
  report.layer["trace.spans"] = static_cast<double>(trace.span_count());
  trace.write(trace_path);
  report.detail["trace_file"] = trace_path;
  report.detail["traced_ops"] = std::to_string(traced.ops.size());
  report.detail["untraced_ops"] = std::to_string(report.timed.ops.size());
  // Traced ops are checked too: they count as attempted.
  report.timed.ops.insert(report.timed.ops.end(), traced.ops.begin(), traced.ops.end());
}

/// Shared loop for the single-threaded workloads: set-up, then either the
/// untraced window or (trace) half untraced + half traced.
struct InProcess {
  std::function<void()> setup;                      // inputs + references
  std::function<OpSample(std::uint64_t, Tracer*, Counters*)> op;
  std::size_t warmup_ops = 2;
};

Report run_in_process(const Args& args, InProcess w) {
  Report report;
  w.setup();
  for (std::size_t i = 0; i < w.warmup_ops; ++i) {
    if (!w.op(1'000'000 + i, nullptr, nullptr).ok) die("warm-up op failed its check");
  }
  report.setup_s = ms_since(g_start) / 1000.0;
  if (args.setup_only) return report;
  const auto untraced = [&](std::uint64_t i) { return w.op(i, nullptr, nullptr); };
  if (!args.trace) {
    report.timed = closed_loop(args.seconds, 0, untraced);
  } else {
    Tracer tracer;
    Counters sums;
    report.timed = closed_loop(args.seconds / 2, 0, untraced);
    const Phase traced = closed_loop(args.seconds / 2, 500'000, [&](std::uint64_t i) {
      return w.op(i, &tracer, &sums);
    });
    finish_layers(report, sums, TraceSet{{&tracer}}, traced,
                  args.work_dir + "/trace-" + args.workload + ".json");
  }
  report.peak_rss_mb = proc_status_kb("self", "VmHWM") / 1024.0;
  return report;
}

// ----------------------------------------------------------------- inputs

/// A seeded label renaming: every label gets a fresh single-letter name,
/// in its old index position. Index-permuting renamings are avoided on
/// purpose: the relaxation search and the SAT encodings visit labels in
/// index order, and their cost swings up to 2.6x with that order, which
/// would make one seed's op a different job from another's.
Problem renamed(const Problem& p, Rng& rng) {
  const std::string alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::vector<char> letters(alphabet.begin(), alphabet.end());
  rng.shuffle(letters);
  if (p.alphabet_size() > letters.size()) die("alphabet too large to rename");
  LabelRegistry registry;
  for (std::size_t l = 0; l < p.alphabet_size(); ++l) registry.intern(std::string(1, letters[l]));
  return Problem(p.name(), std::move(registry), p.white(), p.black());
}

void add_sat_stats(Counters& c, const SatStats& s) {
  c["sat.inprocess_runs"] += static_cast<double>(s.inprocess_runs);
  // Useful work of the passes: clauses and variables they removed or
  // shortened, plus the root units they derived.
  c["sat.inprocess_removed"] += static_cast<double>(
      s.subsumed_clauses + s.strengthened_clauses + s.vivified_clauses +
      s.eliminated_vars + s.substituted_vars + s.inprocess_units);
}

// --------------------------------------------------------------- re-chain

/// Each op verifies the whole Corollary 4.6 matching chain at Δ' (5, or 3
/// in smoke mode) after a fresh seeded renaming of every problem in it.
/// re/ and formalism/ do all the work; no SAT, simulator, or socket.
Report run_re_chain(const Args& args) {
  const std::size_t delta = args.smoke ? 3 : 5;
  std::vector<Problem> chain;
  InProcess w;
  w.setup = [&] {
    chain = matching_lower_bound_sequence(delta, 0, 1,
                                          matching_sequence_length(delta, 0, 1));
  };
  w.op = [&](std::uint64_t i, Tracer* tracer, Counters* counters) {
    Rng rng = stream(args.seed, 1, i);
    std::vector<Problem> problems;
    for (const Problem& p : chain) problems.push_back(renamed(p, rng));
    REStats stats;
    REOptions options;
    options.threads = 1;
    if (counters != nullptr) options.stats = &stats;
    OpSample sample;
    const auto t0 = Clock::now();
    SequenceReport report;
    {
      Scope op(tracer, "op", i);
      Scope span(tracer, "re.verify_lower_bound_sequence", i);
      report = verify_lower_bound_sequence(problems, options);
    }
    sample.ms = ms_since(t0);
    sample.ok = report.valid && report.steps.size() + 1 == problems.size();
    std::uint64_t relaxation_nodes = 0;
    for (const SequenceStepReport& step : report.steps) {
      sample.ok = sample.ok && step.relaxation_found;
      relaxation_nodes += step.relaxation_nodes;
    }
    if (counters != nullptr) {
      // REStats sums the stages of every RE step of the chain. Its
      // total_ms covers only the two half-steps, not the work between and
      // after them, so the wall time of the public round_eliminate call is
      // taken by re-running it on each step after the op, outside its span.
      double re_wall_ms = 0.0;
      for (std::size_t s = 0; s + 1 < problems.size(); ++s) {
        REOptions probe;
        probe.threads = 1;
        const auto t = Clock::now();
        Scope span(tracer, "re.round_eliminate", i);
        round_eliminate(problems[s], probe);
        re_wall_ms += ms_since(t);
      }
      Counters& c = *counters;
      c["re.harden_ms"] += stats.harden_ms;
      c["re.dominate_ms"] += stats.dominate_ms;
      c["re.relax_ms"] += stats.relax_ms;
      c["re.glue_ms"] += re_wall_ms - stats.harden_ms - stats.dominate_ms - stats.relax_ms;
      c["re.dfs_nodes"] += static_cast<double>(stats.dfs_nodes);
      c["re.extendable_calls"] += static_cast<double>(stats.extendable_calls);
      c["re.partials_deduped"] += static_cast<double>(stats.partials_deduped);
      c["formalism.relaxation_ms"] += sample.ms - re_wall_ms;
      c["formalism.relaxation_nodes"] += static_cast<double>(relaxation_nodes);
    }
    return sample;
  };
  Report report = run_in_process(args, w);
  report.detail["input"] = "Corollary 4.6 chain Pi_" + std::to_string(delta) + "(0..k,1), k=" +
                           std::to_string(chain.size() - 1);
  return report;
}

// ------------------------------------------------------------ lift-refute

/// Each op: decide lift_{4,4}(Π_2(0,1)) on K_{4,4} (unsat), emit and check
/// its lift-unsat certificate, and run one incremental lift_{2,2}(MM_2)
/// sweep over cycles 2..16. lift/, solver/, sat/, and cert/ do the work.
/// The instance is small on purpose: an op takes about 13 ms, so a 25 s
/// window holds some 2000 ops, and the fastest of them is one that ran
/// while the host's other tenants left the core alone (see README).
Report run_lift_refute(const Args& args) {
  constexpr std::size_t kSide = 4;  // K_{kSide,kSide}, lift_{kSide,kSide}
  const std::size_t cycles_hi = args.smoke ? 8 : 16;
  Problem base, mm2;
  BipartiteGraph complete;
  std::vector<BipartiteGraph> cycles;
  std::vector<Verdict> reference;
  InProcess w;
  w.setup = [&] {
    Rng rng = stream(args.seed, 2);
    base = renamed(make_matching_problem(2, 0, 1), rng);
    mm2 = renamed(make_maximal_matching_problem(2), rng);
    complete = make_complete_bipartite(kSide, kSide);
    cycles = make_cycle_supports(2, cycles_hi);
    LiftSweepOptions scratch;
    scratch.incremental = false;
    for (const LiftSweepStep& s : run_lift_sweep(mm2, 2, 2, cycles, scratch).steps) {
      reference.push_back(s.verdict);
    }
  };
  w.op = [&](std::uint64_t i, Tracer* tracer, Counters* counters) {
    Counters scratch_counters;
    Counters& c = counters ? *counters : scratch_counters;
    OpSample sample;
    const auto t0 = Clock::now();
    Scope op(tracer, "op", i);
    // 1. The decision: materialize the lift, then one incremental solve.
    std::optional<Problem> psi;
    {
      const auto t = Clock::now();
      Scope span(tracer, "lift.materialize", i);
      psi = LiftedProblem(base, kSide, kSide).materialize();
      c["lift.materialize_ms"] += ms_since(t);
    }
    if (!psi) die("lift_{4,4} did not materialize");
    Verdict decided = Verdict::kExhausted;
    {
      const auto t = Clock::now();
      Scope span(tracer, "solver.decide", i);
      IncrementalLabelingSweep sweep(std::move(*psi));
      const IncrementalLabelingSweep::Step step = sweep.solve_support(complete);
      decided = step.verdict;
      c["solver.decide_ms"] += ms_since(t);
      c["solver.new_clauses"] += static_cast<double>(step.new_clauses);
      c["sat.conflicts"] += static_cast<double>(step.stats.conflicts);
      c["sat.propagations"] += static_cast<double>(sweep.solver().propagations());
      add_sat_stats(c, sweep.solver().stats());
    }
    // 2. Emit and check the lift-unsat certificate.
    std::optional<cert::Certificate> certificate;
    {
      const auto t = Clock::now();
      Scope span(tracer, "cert.emit", i);
      certificate = cert::make_lift_unsat_certificate(base, kSide, kSide, complete);
      c["cert.emit_ms"] += ms_since(t);
    }
    bool cert_ok = false;
    if (certificate) {
      const auto t = Clock::now();
      Scope span(tracer, "cert.check", i);
      cert_ok = cert::check_certificate(*certificate).status == cert::CertStatus::kValid;
      c["cert.check_ms"] += ms_since(t);
    }
    // 3. The incremental cycles sweep.
    LiftSweepResult swept;
    {
      const auto t = Clock::now();
      Scope span(tracer, "solver.sweep", i);
      swept = run_lift_sweep(mm2, 2, 2, cycles);
      c["solver.sweep_ms"] += ms_since(t);
      std::size_t fresh = 0;
      for (const LiftSweepStep& s : swept.steps) fresh += s.new_clauses;
      c["solver.new_clauses"] += static_cast<double>(fresh);
      c["sat.conflicts"] += static_cast<double>(swept.total_conflicts);
      c["sat.propagations"] += static_cast<double>(swept.total_propagations);
      add_sat_stats(c, swept.sat_stats);
    }
    sample.ms = ms_since(t0);
    bool same = swept.steps.size() == reference.size();
    for (std::size_t s = 0; same && s < reference.size(); ++s) {
      same = swept.steps[s].verdict == reference[s];
    }
    sample.ok = decided == Verdict::kNo && cert_ok && same;
    return sample;
  };
  Report report = run_in_process(args, w);
  const auto removed = report.layer.find("sat.inprocess_removed");
  if (removed != report.layer.end()) {
    const double runs = report.layer["sat.inprocess_runs"];
    report.layer["sat.inprocess_yield"] = runs > 0.0 ? removed->second / runs : 0.0;
    report.layer.erase(removed);
  }
  report.detail["input"] = "lift_{4,4}(Pi_2(0,1)) on K_{4,4}; lift_{2,2}(MM_2) on cycles:2.." +
                           std::to_string(cycles_hi);
  return report;
}

// --------------------------------------------------------------- sim-luby

/// Setup streams a random 6-regular support (2000 nodes; 1000 in smoke
/// mode) into a CSR graph; each op is one full Luby MIS run with a per-op
/// seed, checked independent and maximal on the CSR adjacency. At 2000
/// nodes an op takes about 2.5 ms and its data fits the per-core L2, so
/// neither the host's shared cache nor a long op decides its fastest run
/// (see README).
Report run_sim_luby(const Args& args) {
  const std::size_t n = args.smoke ? 1000 : 2000;
  const std::size_t degree = 6;
  std::unique_ptr<CsrNetwork> net;
  double rss_before_kb = 0.0;
  double gen_ms = 0.0;
  InProcess w;
  w.warmup_ops = 1;
  w.setup = [&] {
    rss_before_kb = proc_status_kb("self", "VmRSS");
    const auto t = Clock::now();
    Rng rng = stream(args.seed, 3);
    CsrStreamBuilder edges(n);
    if (!stream_random_regular(n, degree, rng,
                               [&](NodeId u, NodeId v) { edges.add_edge(u, v); })) {
      die("random regular generation failed");
    }
    CsrBuildError error;
    std::optional<CsrGraph> csr = edges.finish(&error);
    if (!csr) die("CSR build failed: " + error.message);
    net = std::make_unique<CsrNetwork>(std::move(*csr));
    gen_ms = ms_since(t);
  };
  w.op = [&](std::uint64_t i, Tracer* tracer, Counters* counters) {
    LubyMis luby(stream(args.seed, 4, i).next());
    CsrRunOptions options;
    options.threads = 1;
    OpSample sample;
    const auto t0 = Clock::now();
    CsrRunResult result;
    {
      Scope op(tracer, "op", i);
      Scope span(tracer, "sim.run", i);
      result = net->run(luby, options);
    }
    sample.ms = ms_since(t0);
    const std::vector<bool> mis = luby.in_mis();
    const CsrGraph& g = net->graph();
    bool ok = result.completed && result.error.empty() && mis.size() == n;
    for (NodeId v = 0; ok && v < n; ++v) {
      bool covered = mis[v];
      for (const NodeId u : g.neighbors(v)) {
        ok = ok && !(mis[v] && mis[u]);
        covered = covered || mis[u];
      }
      ok = ok && covered;
    }
    sample.ok = ok;
    if (counters != nullptr) {
      Counters& c = *counters;
      const double half_edges = static_cast<double>(g.half_edge_count());
      c["sim.run_ms"] += sample.ms;
      c["sim.rounds"] += static_cast<double>(result.rounds);
      c["sim.messages"] += static_cast<double>(result.messages_sent);
      c["sim.half_edge_rounds_per_s"] +=
          half_edges * static_cast<double>(result.rounds) / (sample.ms / 1000.0);
    }
    return sample;
  };
  Report report = run_in_process(args, w);
  if (args.trace) {
    const double half_edges = static_cast<double>(net->graph().half_edge_count());
    report.layer["graph.gen_ms"] = gen_ms;
    report.layer["sim.bytes_per_half_edge"] =
        (report.peak_rss_mb * 1024.0 - rss_before_kb) * 1024.0 / half_edges;
  }
  report.detail["input"] = "random " + std::to_string(degree) + "-regular, n=" +
                           std::to_string(n) + ", Luby MIS, threads=1";
  return report;
}

// -------------------------------------------------------------- serve-mix

/// The real slocal_serve binary with default flags, on an ephemeral port.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& work_dir) {
    const std::string out_path = work_dir + "/serve.out";
    const std::string err_path = work_dir + "/serve.err";
    // A stale announcement from an earlier run must never be read as ours.
    std::remove(out_path.c_str());
    pid_ = fork();
    if (pid_ < 0) die("fork failed");
    if (pid_ == 0) {
      const int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int in = open("/dev/null", O_RDONLY);
      if (out < 0 || err < 0 || in < 0) _exit(127);
      dup2(in, 0);
      dup2(out, 1);
      dup2(err, 2);
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed parent
      execl(binary.c_str(), binary.c_str(), "--listen=0", static_cast<char*>(nullptr));
      _exit(127);
    }
    // The server announces its port on stdout once it listens.
    const auto t0 = Clock::now();
    while (port_ == 0) {
      std::ifstream in(out_path);
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("listening port=", 0) == 0) {
          port_ = static_cast<std::uint16_t>(std::strtoul(line.c_str() + 15, nullptr, 10));
        }
      }
      if (port_ != 0) break;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        die("slocal_serve exited before listening (see " + err_path + ")");
      }
      if (ms_since(t0) > 20'000) die("slocal_serve did not announce a port");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// SIGTERM (drain + exit 0), escalating to SIGKILL; always reaps.
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (ms_since(t0) > 10'000) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

std::map<std::string, double> parse_stats_line(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) out[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
  }
  return out;
}

std::string field_of(const std::string& response, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  return response.substr(start, response.find(' ', start) - start);
}

std::string join_verdicts(const std::vector<Verdict>& verdicts, std::size_t from,
                          std::size_t count) {
  std::string joined;
  for (std::size_t i = from; i < from + count; ++i) {
    if (!joined.empty()) joined += ',';
    joined += to_string(verdicts[i]);
  }
  return joined;
}

/// Two closed-loop net::Client connections against slocal_serve. A fixed,
/// seeded request schedule of 85% reads and 15% writes. Reads are 70%
/// `sequence` requests whose RE is already in the server's RECache and 15%
/// repeat sweeps answered by the sweep memo; writes are sweeps over a fresh
/// gadgets:k..k+7 range of lift_{2,2}(2-coloring) that miss the memo, run
/// SAT, and grow it.
///
/// Sequence reads are the majority, so the median is one of them. Each is
/// Π_4(0,1) followed by kRepeat copies: every step is an RECache hit (a
/// canonicalization and a lookup) plus a relaxation search, so a read is
/// about 15 ms of work rather than thread hand-offs, and a read-path gain
/// shows in op_p50_ms. A memo read also waits the 10 ms batch window, so
/// it would make the median track a timer. Each connection repeats its own
/// problem's memo sweeps, so the two connections' memo reads never share a
/// batch group (a batched sweep is solved as a group and skips the memo).
///
/// Writes use the gadget family rather than growing cycles for two reasons:
/// a support of k gadgets is k disjoint copies of K_{2,2}, so its verdict
/// equals the one-gadget verdict (a cheap, exact in-process reference), and
/// the sweep cost grows linearly in k, where a cycle sweep's grows
/// quadratically. Every write must be a range the server has not seen, so
/// k walks the band [2, kWriteBand + 1] in bit-reversed order from a seeded
/// offset (k = 1 is the warm-up write): any prefix of that walk covers the
/// band evenly, which keeps the write-cost mix the same for every seed and
/// any run length.
Report run_serve_mix(const Args& args) {
  constexpr std::size_t kConnections = 2;
  constexpr std::size_t kRepeat = 16;       // sequence reads: Π_0 + 16 copies
  constexpr std::size_t kReadFiles = 4;     // seeded renamings of one problem
  constexpr std::size_t kMemoSweeps = 4;    // distinct memo-hit sweep ranges
  constexpr std::size_t kWriteBand = 1024;  // a run uses ~200 of these
  constexpr std::size_t kWriteWidth = 8;    // supports per write

  Report report;
  if (args.serve_bin.empty()) die("serve-mix needs --serve-bin");

  // Inputs: seeded renamings written as problem files, plus the expected
  // verdicts from a direct in-process computation on the same bytes.
  Rng rng = stream(args.seed, 5);
  const auto write_file = [&](const std::string& name, const Problem& p) {
    const std::string path = args.work_dir + "/" + name;
    std::string text = "# " + p.name() + "\n";
    for (const Configuration& c : p.white().sorted_members()) {
      text += format_configuration(c, p.registry()) + "\n";
    }
    text += "---\n";
    for (const Configuration& c : p.black().sorted_members()) {
      text += format_configuration(c, p.registry()) + "\n";
    }
    std::ofstream(path) << text;
    std::optional<Problem> parsed = parse_problem_text(name, text);
    if (!parsed) die("cannot re-read " + path);
    return std::make_pair(path, *parsed);
  };
  const auto verdicts_of = [](const LiftSweepResult& swept) {
    std::vector<Verdict> v;
    for (const LiftSweepStep& s : swept.steps) v.push_back(s.verdict);
    return v;
  };
  std::vector<std::string> read_paths;
  std::vector<Problem> read_problems;
  std::string read_verdict;
  RECache reference_cache;
  for (std::size_t f = 0; f < kReadFiles; ++f) {
    auto [path, parsed] = write_file("read" + std::to_string(f) + ".txt",
                                     renamed(make_matching_problem(4, 0, 1), rng));
    REOptions options;
    options.threads = 1;
    options.cache = &reference_cache;
    const SequenceReport direct =
        verify_lower_bound_sequence(std::vector<Problem>(kRepeat + 1, parsed), options);
    const std::string verdict = direct.valid ? "valid" : "invalid";
    if (!read_verdict.empty() && verdict != read_verdict) die("renamings disagree");
    read_verdict = verdict;
    read_paths.push_back(path);
    read_problems.push_back(parsed);
  }
  const auto [write_path, write_problem] =
      write_file("write.txt", renamed(make_proper_coloring_problem(2, 2), rng));
  // Memo-read problems, one per connection.
  const Problem memo_problems[kConnections] = {make_maximal_matching_problem(2),
                                               make_proper_coloring_problem(2, 2)};
  std::vector<std::string> memo_paths;
  std::vector<std::vector<std::string>> memo_expected(kConnections);
  for (std::size_t t = 0; t < kConnections; ++t) {
    auto [path, parsed] =
        write_file("memo" + std::to_string(t) + ".txt", renamed(memo_problems[t], rng));
    memo_paths.push_back(path);
    for (std::size_t m = 0; m < kMemoSweeps; ++m) {
      const std::vector<Verdict> v =
          verdicts_of(run_lift_sweep(parsed, 2, 2, make_cycle_supports(2 + 4 * m, 9 + 4 * m)));
      memo_expected[t].push_back(join_verdicts(v, 0, v.size()));
    }
  }
  const std::vector<Verdict> one_gadget =
      verdicts_of(run_lift_sweep(write_problem, 2, 2, make_gadget_supports(2, 2, 1, 1)));
  if (one_gadget.size() != 1 || one_gadget[0] == Verdict::kExhausted) {
    die("one-gadget reference undecided");
  }
  const std::string write_expected =
      join_verdicts(std::vector<Verdict>(kWriteWidth, one_gadget[0]), 0, kWriteWidth);

  // The op schedule: blocks of 20 ops with exactly 14 sequence reads, 3
  // memo reads, and 3 writes, shuffled per block. index is the read file,
  // the memo range, or the write's k.
  struct Planned {
    char cls;
    std::size_t index;
  };
  const std::size_t write_offset = rng.below(kWriteBand);
  std::size_t next_write = 0;
  const auto plan_block = [&](std::vector<Planned>& out) {
    std::vector<char> block;
    block.insert(block.end(), 14, 'r');
    block.insert(block.end(), 3, 'm');
    block.insert(block.end(), 3, 'w');
    rng.shuffle(block);
    for (const char cls : block) {
      if (cls == 'r') {
        out.push_back({cls, rng.below(kReadFiles)});
      } else if (cls == 'm') {
        out.push_back({cls, rng.below(kMemoSweeps)});
      } else {
        if (next_write == kWriteBand) die("write band exhausted");
        std::size_t reversed = 0;
        for (std::size_t b = 0; (std::size_t{1} << b) < kWriteBand; ++b) {
          if ((next_write >> b) & 1) reversed |= kWriteBand >> (b + 1);
        }
        ++next_write;
        out.push_back({cls, 2 + (reversed + write_offset) % kWriteBand});
      }
    }
  };
  // The request line (without "req <id>") and the expected verdict field.
  const auto request_of = [&](const Planned& p, std::size_t connection) {
    const std::size_t i = p.index;
    if (p.cls == 'r') {
      return std::make_pair("sequence " + read_paths[i] + " repeat=" + std::to_string(kRepeat),
                            read_verdict);
    }
    if (p.cls == 'm') {
      return std::make_pair("sweep " + memo_paths[connection] + " 2 2 cycles:" +
                                std::to_string(2 + 4 * i) + ".." + std::to_string(9 + 4 * i),
                            memo_expected[connection][i]);
    }
    return std::make_pair("sweep " + write_path + " 2 2 gadgets:" + std::to_string(i) + ".." +
                              std::to_string(i + kWriteWidth - 1),
                          write_expected);
  };

  const double inputs_s = ms_since(g_start) / 1000.0;
  ServerProcess server(args.serve_bin, args.work_dir);
  const double started_s = ms_since(g_start) / 1000.0;
  std::vector<net::Client> clients(kConnections);
  for (net::Client& client : clients) {
    net::ClientOptions options;
    options.port = server.port();
    options.io_timeout_ms = 60'000;
    std::string error;
    if (!client.connect(options, &error)) die("connect: " + error);
  }
  std::atomic<std::uint64_t> next_id{0};
  const auto execute = [&](std::size_t connection, const Planned& p, OpSample* sample) {
    const auto [line, expect] = request_of(p, connection);
    const std::string id = "q" + std::to_string(next_id.fetch_add(1));
    std::string error;
    const auto t0 = Clock::now();
    const std::optional<std::string> response =
        clients[connection].request("req " + id + " " + line, &error);
    sample->ms = ms_since(t0);
    sample->cls = p.cls;
    if (!response) die("request failed: " + error);
    const bool ok_class = response->rfind("resp " + id + " ok ", 0) == 0;
    const std::string got = p.cls == 'r' ? field_of(*response, "verdict")
                                         : field_of(*response, "verdicts");
    sample->ok = ok_class && got == expect;
  };
  // Warm the shared state: every read problem's RE into the RECache, every
  // memo sweep into the memo, and one write. The warm-up is the same work
  // for every seed, so setup_s does not depend on which k a seed draws.
  const auto warm = [&](std::size_t connection, const Planned& p) {
    OpSample s;
    execute(connection, p, &s);
    if (!s.ok) die("warm-up op failed its check");
  };
  for (std::size_t f = 0; f < kReadFiles; ++f) warm(0, {'r', f});
  for (std::size_t t = 0; t < kConnections; ++t) {
    for (std::size_t m = 0; m < kMemoSweeps; ++m) warm(t, {'m', m});
  }
  warm(0, {'w', 1});
  report.setup_s = ms_since(g_start) / 1000.0;
  report.detail["setup_split"] = "inputs " + json_number(inputs_s) + " s, server start " +
                                 json_number(started_s - inputs_s) + " s, warm-up " +
                                 json_number(report.setup_s - started_s) + " s";
  if (args.setup_only) return report;

  const auto stats = [&] {
    std::string error;
    const auto line = clients[0].request("stats", &error);
    if (!line) die("stats failed: " + error);
    return parse_stats_line(*line);
  };

  // One window: both connections pull from the shared schedule.
  std::mutex plan_mutex;
  std::vector<Planned> plan;
  std::size_t plan_next = 0;
  const auto run_window = [&](double seconds, bool traced, std::vector<Tracer>* tracers,
                              std::vector<Counters>* counters) {
    Phase phase;
    const double cpu0 = proc_cpu_seconds(server.pid());
    const auto t0 = Clock::now();
    std::vector<std::vector<OpSample>> per_thread(kConnections);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        Tracer* tracer = traced ? &(*tracers)[t] : nullptr;
        for (std::uint64_t i = 0; ms_since(t0) < seconds * 1000.0; ++i) {
          Planned p{};
          {
            const std::lock_guard<std::mutex> lock(plan_mutex);
            if (plan_next == plan.size()) plan_block(plan);
            p = plan[plan_next++];
          }
          OpSample s;
          const std::uint64_t op_id = t * 1'000'000'000ULL + i;
          if (!traced) {
            execute(t, p, &s);
          } else {
            Counters& c = (*counters)[t];
            {
              Scope op(tracer, "op", op_id);
              Scope span(tracer, "net.request", op_id);
              execute(t, p, &s);
            }
            // Direct in-process counterparts of the same request, outside
            // the op: the canonicalization a read pays server-side, and
            // the group solve a write waits on.
            if (p.cls == 'r') {
              const auto tc = Clock::now();
              Scope direct(tracer, "formalism.canonicalize", op_id);
              canonicalize(read_problems[p.index]);
              c["formalism.canonicalize_ms"] += ms_since(tc);
              c["reads"] += 1;
            } else if (p.cls == 'w') {
              const SweepGroupMember member{p.index, p.index + kWriteWidth - 1};
              const auto tg = Clock::now();
              {
                Scope direct(tracer, "solver.sweep_group", op_id);
                run_lift_sweep_group(write_problem, 2, 2, false, {&member, 1});
              }
              c["net.batch_wait_ms"] += s.ms - ms_since(tg);
              c["writes"] += 1;
            }
            if (i % 8 == 0) {
              std::string error;
              const auto tp = Clock::now();
              Scope span(tracer, "net.ping", op_id);
              if (!clients[t].request("ping", &error)) die("ping failed: " + error);
              c["net.ping_rtt_ms"] += ms_since(tp);
              c["pings"] += 1;
            }
          }
          per_thread[t].push_back(s);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    phase.wall_s = ms_since(t0) / 1000.0;
    phase.cpu_s = proc_cpu_seconds(server.pid()) - cpu0;
    for (const auto& ops : per_thread) phase.ops.insert(phase.ops.end(), ops.begin(), ops.end());
    return phase;
  };

  if (!args.trace) {
    report.timed = run_window(args.seconds, false, nullptr, nullptr);
  } else {
    std::vector<Tracer> tracers(kConnections);
    std::vector<Counters> counters(kConnections);
    report.timed = run_window(args.seconds / 2, false, nullptr, nullptr);
    const auto before = stats();
    const Phase traced = run_window(args.seconds / 2, true, &tracers, &counters);
    const auto after = stats();
    Counters sums;
    for (const Counters& c : counters) {
      for (const auto& [k, v] : c) sums[k] += v;
    }
    const auto delta = [&](const char* key) { return after.at(key) - before.at(key); };
    // Class medians come from the untraced half, like the end-to-end ones.
    const double read_p50 = median_ms(report.timed.ops, 'r');
    const double write_p50 = median_ms(report.timed.ops, 'w');
    TraceSet trace;
    for (const Tracer& t : tracers) trace.tracers.push_back(&t);
    finish_layers(report, {}, trace, traced,
                  args.work_dir + "/trace-" + args.workload + ".json");
    const auto per = [&](const char* total, const char* count) {
      return sums[count] > 0 ? sums[total] / sums[count] : 0.0;
    };
    report.layer["formalism.canonicalize_ms"] = per("formalism.canonicalize_ms", "reads");
    report.layer["net.batch_wait_ms"] = per("net.batch_wait_ms", "writes");
    report.layer["net.ping_rtt_ms"] = per("net.ping_rtt_ms", "pings");
    report.layer["serve.read_p50_ms"] = read_p50;
    report.layer["serve.write_p50_ms"] = write_p50;
    const double probes = delta("cache_hits") + delta("cache_misses");
    report.layer["serve.cache_hit_ratio"] = probes > 0 ? delta("cache_hits") / probes : 0.0;
    std::size_t sweeps = 0;
    for (const OpSample& s : traced.ops) sweeps += s.cls != 'r' ? 1 : 0;
    report.layer["serve.memo_hit_ratio"] =
        sweeps > 0 ? delta("sweep_memo_hits") / static_cast<double>(sweeps) : 0.0;
    report.layer["serve.admission_reject_ratio"] =
        delta("received") > 0 ? delta("admission_rejects") / delta("received") : 0.0;
  }
  report.peak_rss_mb = proc_status_kb(std::to_string(server.pid()), "VmHWM") / 1024.0;
  for (net::Client& client : clients) client.close();
  server.stop();
  report.detail["input"] = "slocal_serve --listen=0 (defaults), 2 connections, closed loop; "
                           "mix 70% sequence reads / 15% memo sweeps / 15% gadget write sweeps";
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report report;
  if (args.workload == "re-chain") {
    report = run_re_chain(args);
  } else if (args.workload == "lift-refute") {
    report = run_lift_refute(args);
  } else if (args.workload == "serve-mix") {
    report = run_serve_mix(args);
  } else if (args.workload == "sim-luby") {
    report = run_sim_luby(args);
  } else {
    die("unknown workload '" + args.workload + "'");
  }
  print_report(args, report);
  return 0;
}
