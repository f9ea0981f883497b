#include "src/formalism/relaxation.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <mutex>
#include <utility>

#include "src/formalism/packed_multiset.hpp"
#include "src/util/bitset.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/thread_pool.hpp"

namespace slocal {

namespace {

constexpr std::uint64_t kUnlimitedNodes = ~std::uint64_t{0};

Configuration remap(const Configuration& c, const std::vector<Label>& map) {
  std::vector<Label> out;
  out.reserve(c.size());
  for (const Label l : c.labels()) out.push_back(map[l]);
  return Configuration(std::move(out));
}

bool label_map_valid(const Problem& pi, const Problem& pi_prime,
                     const std::vector<Label>& map) {
  const auto ok = [&](const Constraint& from, const Constraint& to) {
    return std::all_of(from.members().begin(), from.members().end(),
                       [&](const Configuration& c) { return to.contains(remap(c, map)); });
  };
  return ok(pi.white(), pi_prime.white()) && ok(pi.black(), pi_prime.black());
}

/// Source configurations bucketed by their maximum label: a configuration in
/// bucket k becomes fully mapped the moment m(k) is assigned, so the search
/// can reject a prefix m(0..k) without ever extending it. The pruning is
/// exact — a configuration that fails under the prefix fails under every
/// extension — so the serial search visits the same valid leaves in the same
/// order as a leaf-only check would, just without the dead subtrees.
struct MaxLabelBuckets {
  struct Entry {
    const Configuration* config;
    const Constraint* target;
    bool packed;  // target has a packed index: probe the remapped key
  };
  std::vector<std::vector<Entry>> at;

  /// Expects the extension indexes of Π' to be built already, so that
  /// concurrent searches only read them.
  MaxLabelBuckets(const Problem& pi, const Problem& pi_prime) {
    at.resize(pi.alphabet_size());
    const auto add = [&](const Constraint& from, const Constraint& to) {
      for (const Configuration& c : from.members()) {
        Label mx = 0;
        for (const Label l : c.labels()) mx = std::max(mx, l);
        at[mx].push_back({&c, &to, to.packed_index_built()});
      }
    };
    add(pi.white(), pi_prime.white());
    add(pi.black(), pi_prime.black());
  }

  /// All configurations whose labels are <= level map inside Π' under `map`
  /// (only entries map[0..level] are read). A packed target is probed with
  /// the remapped multiset as a key sum: at full degree, extendable is
  /// membership.
  bool ok_at(std::size_t level, const std::vector<Label>& map) const {
    for (const auto& [config, target, packed] : at[level]) {
      if (!packed) {
        if (!target->contains(remap(*config, map))) return false;
        continue;
      }
      PackedMultiset key = 0;
      for (const Label l : config->labels()) {
        // A packable constraint has no member with a label >= 16.
        if (map[l] >= packed::kLabels) return false;
        key += packed::unit(map[l]);
      }
      if (!target->extendable(key)) return false;
    }
    return true;
  }
};

struct LabelMapSearch {
  const MaxLabelBuckets& buckets;
  std::size_t source_labels;
  std::size_t target_labels;
  std::uint64_t node_limit;             // kUnlimitedNodes when uncapped
  SearchBudget* shared = nullptr;       // optional deadline/cancel token
  const std::atomic<bool>* stop = nullptr;  // parallel first-wins flag
  std::uint64_t visited = 0;
  bool exhausted = false;

  /// Tries every image for map[level] in increasing order, so the first
  /// completed map is the lexicographically smallest valid one.
  bool recurse(std::size_t level, std::vector<Label>& map) {
    if (level == source_labels) return true;
    for (std::size_t t = 0; t < target_labels; ++t) {
      if (exhausted) return false;
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) return false;
      if (++visited > node_limit ||
          (shared != nullptr && !shared->charge())) {
        exhausted = true;
        return false;
      }
      map[level] = static_cast<Label>(t);
      if (!buckets.ok_at(level, map)) continue;
      if (recurse(level + 1, map)) return true;
    }
    return false;
  }
};

/// r(l): union over mapping entries of image labels at positions where the
/// (sorted) source configuration holds l.
std::vector<SmallBitset> relation_of(const Problem& pi, const ConfigMapping& mapping) {
  std::vector<SmallBitset> r(pi.alphabet_size());
  for (const auto& [source, image] : mapping) {
    assert(image.size() == source.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
      r[source[i]].set(image[i]);
    }
  }
  return r;
}

/// All black configurations of Π survive all choices over r(·) in Π'.
/// Positions with empty r impose no constraint yet (used during search,
/// where r only grows: a violation found on partial r is final).
bool black_side_ok(const Problem& pi, const Problem& pi_prime,
                   const std::vector<SmallBitset>& r) {
  for (const auto& black : pi.black().members()) {
    std::vector<std::vector<std::size_t>> choices;
    choices.reserve(black.size());
    bool any_empty = false;
    for (const Label l : black.labels()) {
      auto idx = r[l].indices();
      if (idx.empty()) {
        any_empty = true;
        break;
      }
      choices.push_back(std::move(idx));
    }
    if (any_empty) continue;
    const bool all_ok =
        for_each_choice(choices, [&](const std::vector<std::size_t>& pick) {
          std::vector<Label> labels;
          labels.reserve(pick.size());
          for (const std::size_t p : pick) labels.push_back(static_cast<Label>(p));
          return pi_prime.black().contains(Configuration(std::move(labels)));
        });
    if (!all_ok) return false;
  }
  return true;
}

/// black_side_ok against a packed C_B(Π'), with the same verdict. Each
/// choice is a key sum probed against the packed index. Positions holding
/// the same label draw from the same r(l), so their choices are enumerated
/// as multisets (non-decreasing picks) rather than as tuples, and a partial
/// choice that no member extends fails the whole configuration at once.
bool black_side_ok_packed(const Problem& pi, const Problem& pi_prime,
                          const std::vector<SmallBitset>& r) {
  const Constraint& target = pi_prime.black();
  // units[l]: the packed units of r(l), or nothing with `wide[l]` set when
  // r(l) holds a label >= 16, which no member of a packable constraint has.
  std::vector<std::vector<PackedMultiset>> units(r.size());
  std::vector<char> wide(r.size(), 0);
  for (std::size_t l = 0; l < r.size(); ++l) {
    for (const std::size_t t : r[l].indices()) {
      if (t >= packed::kLabels) {
        wide[l] = 1;
        break;
      }
      units[l].push_back(packed::unit(static_cast<Label>(t)));
    }
  }
  for (const auto& black : pi.black().members()) {
    const auto labels = black.labels();  // sorted: equal labels are adjacent
    bool any_empty = false;
    bool any_wide = false;
    for (const Label l : labels) {
      any_empty = any_empty || r[l].empty();
      any_wide = any_wide || wide[l] != 0;
    }
    if (any_empty) continue;
    if (any_wide) return false;
    auto all_inside = [&](auto&& self, std::size_t pos, std::size_t min_index,
                          PackedMultiset key) -> bool {
      if (pos == labels.size()) return true;
      const auto& choices = units[labels[pos]];
      const std::size_t from = pos > 0 && labels[pos] == labels[pos - 1] ? min_index : 0;
      for (std::size_t i = from; i < choices.size(); ++i) {
        const PackedMultiset next = key + choices[i];
        if (!target.extendable(next) || !self(self, pos + 1, i, next)) return false;
      }
      return true;
    };
    if (!all_inside(all_inside, 0, 0, 0)) return false;
  }
  return true;
}

/// Every distinct positional image of a target white configuration: all
/// distinct permutations of its label vector.
std::vector<std::vector<Label>> positional_images(const Configuration& target) {
  std::vector<Label> perm(target.labels().begin(), target.labels().end());
  std::vector<std::vector<Label>> out;
  std::sort(perm.begin(), perm.end());
  do {
    out.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

struct RelaxSearch {
  const Problem& pi;
  const Problem& pi_prime;
  std::vector<Configuration> sources;
  std::vector<std::vector<std::vector<Label>>> candidates;  // per source
  std::uint64_t budget;
  SearchBudget* shared = nullptr;       // optional deadline/cancel token
  const std::atomic<bool>* stop = nullptr;  // parallel first-wins flag
  std::uint64_t visited = 0;
  bool exhausted = false;
  ConfigMapping mapping{};
  /// C_B(Π') has a packed index (built before any fan-out).
  bool packed = pi_prime.black().packed_index_built();

  bool recurse(std::size_t index, std::vector<SmallBitset>& r) {
    if (exhausted) return false;
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return false;
    if (++visited > budget || (shared != nullptr && !shared->charge())) {
      exhausted = true;
      return false;
    }
    if (index == sources.size()) return true;
    const auto& source = sources[index];
    for (const auto& image : candidates[index]) {
      // Apply: extend r positionally.
      const std::vector<SmallBitset> saved = r;
      for (std::size_t i = 0; i < source.size(); ++i) r[source[i]].set(image[i]);
      if (packed ? black_side_ok_packed(pi, pi_prime, r) : black_side_ok(pi, pi_prime, r)) {
        mapping[source] = image;
        if (recurse(index + 1, r)) return true;
        mapping.erase(source);
      }
      r = saved;
    }
    return false;
  }
};

}  // namespace

LabelMapResult find_relaxation_label_map(const Problem& pi, const Problem& pi_prime,
                                         const RelaxationOptions& options) {
  LabelMapResult result;
  if (pi.white_degree() != pi_prime.white_degree() ||
      pi.black_degree() != pi_prime.black_degree()) {
    return result;  // kNo: degrees differ, no map can exist
  }
  const std::size_t n = pi.alphabet_size();
  const std::size_t targets = pi_prime.alphabet_size();
  if (n == 0) {
    std::vector<Label> empty;
    if (label_map_valid(pi, pi_prime, empty)) {
      result.verdict = Verdict::kYes;
      result.map = std::move(empty);
    }
    return result;
  }
  pi_prime.white().build_extension_index();
  pi_prime.black().build_extension_index();
  const MaxLabelBuckets buckets(pi, pi_prime);
  const std::uint64_t limit =
      options.node_budget == 0 ? kUnlimitedNodes : options.node_budget;
  const std::size_t threads =
      (options.node_budget == 0 && options.threads != 1 && targets > 1)
          ? std::min(ThreadPool::resolve_threads(options.threads), targets)
          : 1;

  if (threads <= 1) {
    LabelMapSearch search{buckets, n, targets, limit, options.budget, nullptr};
    std::vector<Label> map(n, 0);
    if (search.recurse(0, map)) {
      result.verdict = Verdict::kYes;
      result.map = std::move(map);
    } else {
      result.verdict = search.exhausted ? Verdict::kExhausted : Verdict::kNo;
    }
    result.nodes = search.visited;
    return result;
  }

  // Parallel: one task per image of label 0. The first task to complete a
  // map raises `found`, which the others poll at every node. The internal
  // flag is deliberately separate from options.budget — a caller's shared
  // budget must not be cancelled by our own success.
  std::atomic<bool> found{false};
  std::atomic<bool> any_exhausted{false};
  std::atomic<std::uint64_t> total_nodes{0};
  std::mutex claim;
  std::optional<std::vector<Label>> winner;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(targets);
  for (std::size_t t0 = 0; t0 < targets; ++t0) {
    tasks.push_back([&, t0] {
      if (found.load(std::memory_order_relaxed) ||
          (options.budget != nullptr && options.budget->halted())) {
        return;
      }
      LabelMapSearch search{buckets, n, targets, kUnlimitedNodes,
                            options.budget, &found};
      std::vector<Label> map(n, 0);
      map[0] = static_cast<Label>(t0);
      bool ok = false;
      ++search.visited;  // the root assignment m(0) = t0
      if (options.budget != nullptr && !options.budget->charge()) {
        search.exhausted = true;
      } else if (buckets.ok_at(0, map)) {
        ok = search.recurse(1, map);
      }
      total_nodes.fetch_add(search.visited, std::memory_order_relaxed);
      if (search.exhausted) any_exhausted.store(true, std::memory_order_relaxed);
      if (ok && !found.exchange(true, std::memory_order_acq_rel)) {
        const std::lock_guard<std::mutex> lock(claim);
        winner = std::move(map);
      }
    });
  }
  ThreadPool pool(threads - 1);
  pool.run_batch(std::move(tasks));
  result.nodes = total_nodes.load();
  if (winner.has_value()) {
    result.verdict = Verdict::kYes;
    result.map = std::move(winner);
  } else {
    result.verdict = any_exhausted.load() ? Verdict::kExhausted : Verdict::kNo;
  }
  return result;
}

WitnessResult find_relaxation_witness(const Problem& pi, const Problem& pi_prime,
                                      const RelaxationOptions& options) {
  WitnessResult result;
  if (pi.white_degree() != pi_prime.white_degree() ||
      pi.black_degree() != pi_prime.black_degree()) {
    return result;  // kNo
  }
  pi_prime.black().build_extension_index();  // before any fan-out
  std::vector<Configuration> sources = pi.white().sorted_members();
  // Candidate positional images: all distinct orderings of all white
  // configurations of Π'.
  std::vector<std::vector<Label>> all_images;
  for (const auto& target : pi_prime.white().sorted_members()) {
    const auto perms = positional_images(target);
    all_images.insert(all_images.end(), perms.begin(), perms.end());
  }
  const std::uint64_t limit =
      options.node_budget == 0 ? kUnlimitedNodes : options.node_budget;
  const std::size_t fan = sources.empty() ? 0 : all_images.size();
  const std::size_t threads =
      (options.node_budget == 0 && options.threads != 1 && fan > 1)
          ? std::min(ThreadPool::resolve_threads(options.threads), fan)
          : 1;

  if (threads <= 1) {
    RelaxSearch search{pi,    pi_prime,       std::move(sources), {},
                       limit, options.budget, nullptr};
    search.candidates.assign(search.sources.size(), all_images);
    std::vector<SmallBitset> r(pi.alphabet_size());
    if (search.recurse(0, r)) {
      result.verdict = Verdict::kYes;
      result.mapping = std::move(search.mapping);
    } else {
      result.verdict = search.exhausted ? Verdict::kExhausted : Verdict::kNo;
    }
    result.nodes = search.visited;
    return result;
  }

  // Parallel: one task per candidate image of the first white configuration;
  // first completed mapping wins and cancels the rest via the internal flag.
  std::atomic<bool> found{false};
  std::atomic<bool> any_exhausted{false};
  std::atomic<std::uint64_t> total_nodes{0};
  std::mutex claim;
  std::optional<ConfigMapping> winner;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(fan);
  for (std::size_t i = 0; i < fan; ++i) {
    tasks.push_back([&, i] {
      if (found.load(std::memory_order_relaxed) ||
          (options.budget != nullptr && options.budget->halted())) {
        return;
      }
      RelaxSearch search{pi,              pi_prime,       sources, {},
                         kUnlimitedNodes, options.budget, &found};
      search.candidates.assign(sources.size(), all_images);
      search.candidates[0] = {all_images[i]};
      std::vector<SmallBitset> r(pi.alphabet_size());
      const bool ok = search.recurse(0, r);
      total_nodes.fetch_add(search.visited, std::memory_order_relaxed);
      if (search.exhausted) any_exhausted.store(true, std::memory_order_relaxed);
      if (ok && !found.exchange(true, std::memory_order_acq_rel)) {
        const std::lock_guard<std::mutex> lock(claim);
        winner = std::move(search.mapping);
      }
    });
  }
  ThreadPool pool(threads - 1);
  pool.run_batch(std::move(tasks));
  result.nodes = total_nodes.load();
  if (winner.has_value()) {
    result.verdict = Verdict::kYes;
    result.mapping = std::move(winner);
  } else {
    result.verdict = any_exhausted.load() ? Verdict::kExhausted : Verdict::kNo;
  }
  return result;
}

std::optional<std::vector<Label>> relaxation_label_map(const Problem& pi,
                                                       const Problem& pi_prime) {
  RelaxationOptions options;
  options.node_budget = 0;  // exhaustive
  options.threads = 1;
  return find_relaxation_label_map(pi, pi_prime, options).map;
}

bool check_relaxation_label_map(const Problem& pi, const Problem& pi_prime,
                                const std::vector<Label>& map) {
  if (pi.white_degree() != pi_prime.white_degree() ||
      pi.black_degree() != pi_prime.black_degree()) {
    return false;
  }
  if (map.size() != pi.alphabet_size()) return false;
  for (const Label l : map) {
    if (l >= pi_prime.alphabet_size()) return false;
  }
  return label_map_valid(pi, pi_prime, map);
}

bool check_relaxation_witness(const Problem& pi, const Problem& pi_prime,
                              const ConfigMapping& mapping) {
  if (pi.white_degree() != pi_prime.white_degree() ||
      pi.black_degree() != pi_prime.black_degree()) {
    return false;
  }
  // Every white configuration of Π must have an image, and the image must be
  // a white configuration of Π'.
  for (const auto& source : pi.white().members()) {
    const auto it = mapping.find(source);
    if (it == mapping.end()) return false;
    if (it->second.size() != source.size()) return false;
    if (!pi_prime.white().contains(Configuration(it->second))) return false;
  }
  return black_side_ok(pi, pi_prime, relation_of(pi, mapping));
}

std::optional<ConfigMapping> find_relaxation(const Problem& pi,
                                             const Problem& pi_prime,
                                             std::uint64_t node_budget,
                                             bool* exhausted) {
  RelaxationOptions options;
  options.node_budget = node_budget;
  options.threads = 1;
  WitnessResult result = find_relaxation_witness(pi, pi_prime, options);
  if (exhausted != nullptr) *exhausted = result.verdict == Verdict::kExhausted;
  return std::move(result.mapping);
}

}  // namespace slocal
