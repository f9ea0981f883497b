#include "src/formalism/canonical.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "src/formalism/packed_multiset.hpp"

namespace slocal {

namespace {

/// A constraint encoding: a word sequence compared lexicographically.
/// kSideSep, above every label and count, opens each side's block.
using Key = std::vector<std::uint32_t>;
constexpr std::uint32_t kSideSep = 0xFFFFFFFFu;

std::uint64_t fnv1a64(const Key& words) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint32_t w : words) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (w >> shift) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

int distinct_count(const std::vector<int>& color) {
  return color.empty() ? 0 : *std::max_element(color.begin(), color.end()) + 1;
}

/// `count` multisets of `width` values below `range`, row-major in `rows`
/// (any order within a row), ordered by their sorted value tuples:
/// order[k] is the k-th smallest and rank[k] its dense rank (equal
/// multisets share one). A multiset packs into one word, the
/// packed_multiset.hpp encoding of the mirrored values 15 - v (so v's count
/// sits in nibble 15 - v): of two sorted tuples of equal length, the
/// lexicographically smaller has more of the first value where they
/// differ, hence the larger word, so the order is that of ~word. Rows that
/// cannot pack are sorted in place and compared as tuples.
struct MultisetOrder {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> rank;

  MultisetOrder(std::vector<std::uint32_t>& rows, std::size_t width, std::size_t count,
                std::size_t range)
      : order(count), rank(count) {
    if (range <= packed::kLabels && width <= packed::kMaxCount) {
      std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(count);
      for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t word = 0;
        for (std::size_t j = 0; j < width; ++j) {
          word += packed::unit(static_cast<Label>(packed::kLabels - 1 - rows[i * width + j]));
        }
        keyed[i] = {~word, static_cast<std::uint32_t>(i)};
      }
      std::sort(keyed.begin(), keyed.end());
      for (std::size_t k = 0; k < count; ++k) {
        order[k] = keyed[k].second;
        rank[k] = k == 0 ? 0 : rank[k - 1] + (keyed[k].first != keyed[k - 1].first);
      }
      return;
    }
    const auto row = [&](std::uint32_t i) {
      return std::span<const std::uint32_t>(rows).subspan(i * width, width);
    };
    for (std::size_t i = 0; i < count; ++i) {
      std::sort(rows.begin() + static_cast<std::ptrdiff_t>(i * width),
                rows.begin() + static_cast<std::ptrdiff_t>((i + 1) * width));
    }
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return std::ranges::lexicographical_compare(row(a), row(b));
    });
    for (std::size_t k = 0; k < count; ++k) {
      rank[k] = k == 0 ? 0
                       : rank[k - 1] + !std::ranges::equal(row(order[k - 1]), row(order[k]));
    }
  }
};

/// One side's configurations, flat: configuration i is
/// labels[i * degree, (i + 1) * degree), sorted. The layout of the
/// refinement rows is fixed for a whole search: every (label l,
/// configuration containing l m times) pair owns one slot in bucket
/// l * (degree + 1) + m, so label l's slots are contiguous and grouped by
/// multiplicity; run_bucket[run_start[i], run_start[i + 1]) lists
/// configuration i's buckets.
struct Side {
  std::size_t degree = 0;
  std::size_t count = 0;
  std::vector<Label> labels;
  std::vector<std::uint32_t> bucket_start;
  std::vector<std::uint32_t> run_start;
  std::vector<std::uint32_t> run_bucket;

  /// Reads `c` over an alphabet of `n` labels, every label renamed through
  /// `map` when one is given. The map must keep the order of the labels
  /// that occur, so that configurations stay sorted.
  Side(const Constraint& c, std::size_t n, const std::vector<Label>* map = nullptr)
      : degree(c.degree()), count(c.size()) {
    labels.reserve(count * degree);
    for (const Configuration& cfg : c.members()) {
      for (const Label l : cfg.labels()) labels.push_back(map != nullptr ? (*map)[l] : l);
    }
    const std::size_t per_label = degree + 1;
    bucket_start.assign(n * per_label + 1, 0);
    run_start.assign(count + 1, 0);
    for (std::size_t i = 0; i < count; ++i) {
      // Sorted labels: each run of equal labels is one distinct label.
      const Label* row = labels.data() + i * degree;
      for (std::size_t j = 0; j < degree;) {
        std::size_t end = j + 1;
        while (end < degree && row[end] == row[j]) ++end;
        const std::size_t bucket = row[j] * per_label + (end - j);
        run_bucket.push_back(static_cast<std::uint32_t>(bucket));
        ++bucket_start[bucket + 1];
        j = end;
      }
      run_start[i + 1] = static_cast<std::uint32_t>(run_bucket.size());
    }
    std::partial_sum(bucket_start.begin(), bucket_start.end(), bucket_start.begin());
  }

  std::span<const std::uint64_t> rows_of(const std::vector<std::uint64_t>& rows,
                                         std::size_t l) const {
    const std::size_t begin = bucket_start[l * (degree + 1)];
    return std::span<const std::uint64_t>(rows).subspan(
        begin, bucket_start[(l + 1) * (degree + 1)] - begin);
  }

  /// Every configuration renamed through `perm` (perm[label] = new label).
  Constraint build(const std::vector<Label>& perm) const {
    Constraint out(degree);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<Label> mapped;
      mapped.reserve(degree);
      for (std::size_t j = 0; j < degree; ++j) mapped.push_back(perm[labels[i * degree + j]]);
      out.add(Configuration(std::move(mapped)));
    }
    return out;
  }

  /// Every label's refinement rows on this side under `color` (values below
  /// `classes`): one (multiplicity << 32) | rank word per configuration
  /// containing the label, rank ordering configurations by their sorted
  /// color tuples. Configurations are visited in rank order, so each bucket
  /// fills sorted and each label's rows (rows_of) come out sorted.
  std::vector<std::uint64_t> label_rows(const std::vector<int>& color,
                                        std::size_t classes) const {
    std::vector<std::uint32_t> colors(labels.size());
    for (std::size_t k = 0; k < labels.size(); ++k) {
      colors[k] = static_cast<std::uint32_t>(color[labels[k]]);
    }
    const MultisetOrder sorted(colors, degree, count, classes);
    std::vector<std::uint64_t> rows(bucket_start.back());
    std::vector<std::uint32_t> fill(bucket_start.begin(), bucket_start.end() - 1);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t i = sorted.order[k];
      for (std::uint32_t r = run_start[i]; r < run_start[i + 1]; ++r) {
        const std::uint32_t bucket = run_bucket[r];
        const std::uint64_t mult = bucket % (degree + 1);
        rows[fill[bucket]++] = (mult << 32) | sorted.rank[k];
      }
    }
    return rows;
  }
};

/// The exact canonical-labeling search: Weisfeiler-Leman-style refinement of
/// label classes to a fixpoint, then individualization-refinement
/// backtracking over the first class the refinement could not split. Every
/// branch of a split class is explored, so the minimum encoding over all
/// leaves is invariant under any renaming of the input.
class Canonicalizer {
 public:
  Canonicalizer(std::size_t n, const Side& white, const Side& black)
      : n_(n), white_(white), black_(black) {}

  /// Runs the search; returns the canonical perm (perm[label] = canonical
  /// label) and leaves the winning encoding for fingerprint().
  std::vector<Label> run() {
    if (n_ == 0) {
      best_enc_ = encode({});
      return {};
    }
    search(std::vector<int>(n_, 0));
    assert(have_best_);
    return best_perm_;
  }

  std::uint64_t fingerprint() const { return fnv1a64(best_enc_); }

 private:
  /// One refinement round. A label's key is its color, then its white rows,
  /// then its black rows (Side::label_rows), each side's rows in sorted
  /// order; labels are renumbered by the rank of their key, so the new
  /// colors keep the existing class order and are 0..k-1. A proper prefix
  /// sorts after on the white side and before on the black side: the order
  /// of the original word-vector keys (see canonical.hpp).
  std::vector<int> refine_round(const std::vector<int>& color) const {
    // The keys only compare colors, so an order-preserving renumbering to
    // 0..classes-1 ranks identically (and lets small inputs pack).
    std::vector<int> dense(static_cast<std::size_t>(distinct_count(color)), 0);
    for (const int c : color) dense[static_cast<std::size_t>(c)] = 1;
    std::partial_sum(dense.begin(), dense.end(), dense.begin());
    const std::size_t classes = dense.empty() ? 0 : static_cast<std::size_t>(dense.back());
    std::vector<int> dense_color(n_);
    for (std::size_t l = 0; l < n_; ++l) {
      dense_color[l] = dense[static_cast<std::size_t>(color[l])] - 1;
    }
    const std::vector<std::uint64_t> white_rows = white_.label_rows(dense_color, classes);
    const std::vector<std::uint64_t> black_rows = black_.label_rows(dense_color, classes);
    const auto compare_rows = [](std::span<const std::uint64_t> a,
                                 std::span<const std::uint64_t> b, bool prefix_first) {
      const std::size_t common = std::min(a.size(), b.size());
      for (std::size_t k = 0; k < common; ++k) {
        if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
      }
      if (a.size() == b.size()) return 0;
      return (a.size() < b.size()) == prefix_first ? -1 : 1;
    };
    const auto compare = [&](std::size_t a, std::size_t b) {
      if (dense_color[a] != dense_color[b]) return dense_color[a] < dense_color[b] ? -1 : 1;
      const int white =
          compare_rows(white_.rows_of(white_rows, a), white_.rows_of(white_rows, b), false);
      if (white != 0) return white;
      return compare_rows(black_.rows_of(black_rows, a), black_.rows_of(black_rows, b),
                          true);
    };
    std::vector<std::size_t> order(n_);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return compare(a, b) < 0; });
    std::vector<int> next(n_);
    int id = 0;
    for (std::size_t k = 0; k < n_; ++k) {
      if (k > 0 && compare(order[k - 1], order[k]) != 0) ++id;
      next[order[k]] = id;
    }
    return next;
  }

  /// Drives the color partition to a refinement fixpoint: stops once a
  /// round no longer raises the class count, counted as max color + 1. An
  /// individualized input (colors 2c and 2c + 1) is not dense, so its first
  /// round is measured against that larger count; the original
  /// implementation stopped by the same rule, and twinned problems in
  /// canonical_test pin it.
  std::vector<int> refine(std::vector<int> color) const {
    while (true) {
      std::vector<int> next = refine_round(color);
      const bool stable = distinct_count(next) == distinct_count(color);
      color = std::move(next);
      if (stable) return color;
    }
  }

  void search(std::vector<int> color) {
    color = refine(color);

    // First class (in canonical color order) the refinement left ambiguous.
    int target = -1;
    {
      std::vector<int> class_size(static_cast<std::size_t>(distinct_count(color)), 0);
      for (const int c : color) ++class_size[static_cast<std::size_t>(c)];
      for (std::size_t c = 0; c < class_size.size(); ++c) {
        if (class_size[c] > 1) {
          target = static_cast<int>(c);
          break;
        }
      }
    }

    if (target < 0) {
      // Discrete partition: the colors are a permutation.
      std::vector<Label> perm(n_);
      for (std::size_t l = 0; l < n_; ++l) perm[l] = static_cast<Label>(color[l]);
      Key enc = encode(perm);
      if (!have_best_ || enc < best_enc_) {
        best_enc_ = std::move(enc);
        best_perm_ = std::move(perm);
        have_best_ = true;
      }
      return;
    }

    // Individualize each member of the ambiguous class in turn: the chosen
    // label sorts before its former classmates, then refinement propagates
    // the distinction. Branching over every member keeps the minimum
    // encoding renaming-invariant.
    for (std::size_t u = 0; u < n_; ++u) {
      if (color[u] != target) continue;
      std::vector<int> next(n_);
      for (std::size_t l = 0; l < n_; ++l) {
        next[l] = 2 * color[l] + ((color[l] == target && l != u) ? 1 : 0);
      }
      search(std::move(next));
    }
  }

  /// Full constraint encoding under a complete permutation: header, then
  /// each side's remapped configurations in sorted order. Lexicographic
  /// comparison of encodings defines the canonical representative.
  Key encode(const std::vector<Label>& perm) const {
    Key out;
    out.reserve(5 + (white_.count + 1) * (white_.degree + 1) +
                (black_.count + 1) * (black_.degree + 1));
    out.push_back(static_cast<std::uint32_t>(n_));
    out.push_back(static_cast<std::uint32_t>(white_.degree));
    out.push_back(static_cast<std::uint32_t>(black_.degree));
    out.push_back(static_cast<std::uint32_t>(white_.count));
    out.push_back(static_cast<std::uint32_t>(black_.count));
    for (const Side* side : {&white_, &black_}) {
      out.push_back(kSideSep);
      const std::size_t d = side->degree;
      std::vector<std::uint32_t> rows(side->labels.size());
      for (std::size_t k = 0; k < rows.size(); ++k) rows[k] = perm[side->labels[k]];
      for (std::size_t i = 0; i < side->count; ++i) {
        std::sort(rows.begin() + static_cast<std::ptrdiff_t>(i * d),
                  rows.begin() + static_cast<std::ptrdiff_t>((i + 1) * d));
      }
      for (const std::uint32_t i : MultisetOrder(rows, d, side->count, n_).order) {
        out.insert(out.end(), rows.begin() + static_cast<std::ptrdiff_t>(i * d),
                   rows.begin() + static_cast<std::ptrdiff_t>((i + 1) * d));
      }
    }
    return out;
  }

  std::size_t n_;
  const Side& white_;
  const Side& black_;
  Key best_enc_;
  std::vector<Label> best_perm_;
  bool have_best_ = false;
};

}  // namespace

CanonicalForm canonicalize(const Problem& p) {
  const std::size_t n = p.alphabet_size();
  const Side white(p.white(), n);
  const Side black(p.black(), n);
  Canonicalizer search(n, white, black);
  CanonicalForm out;
  out.perm = search.run();
  out.fingerprint = search.fingerprint();
  LabelRegistry reg;
  for (std::size_t c = 0; c < n; ++c) reg.intern(std::to_string(c));
  out.problem = Problem(p.name(), std::move(reg), white.build(out.perm),
                        black.build(out.perm));
  return out;
}

std::uint64_t canonical_fingerprint(const Problem& p) {
  const std::size_t n = p.alphabet_size();
  const Side white(p.white(), n);
  const Side black(p.black(), n);
  Canonicalizer search(n, white, black);
  search.run();
  return search.fingerprint();
}

Problem drop_unused_labels(const Problem& p) {
  std::vector<bool> used(p.alphabet_size(), false);
  for (const Label l : p.white().used_labels()) used[l] = true;
  for (const Label l : p.black().used_labels()) used[l] = true;
  // Survivors keep their relative order, so compacted configurations stay
  // sorted; survivors[compact label] = original label.
  std::vector<Label> compact(p.alphabet_size(), 0);
  std::vector<Label> survivors;
  for (std::size_t l = 0; l < used.size(); ++l) {
    if (!used[l]) continue;
    compact[l] = static_cast<Label>(survivors.size());
    survivors.push_back(static_cast<Label>(l));
  }

  // Reindex the survivors canonically so the result's constraint structure
  // depends only on the renaming class of the input, not on which indices
  // happened to be used. Names still travel with their labels.
  const std::size_t n = survivors.size();
  const Side white(p.white(), n, &compact);
  const Side black(p.black(), n, &compact);
  const std::vector<Label> perm = Canonicalizer(n, white, black).run();
  std::vector<Label> inverse(n, 0);
  for (std::size_t l = 0; l < n; ++l) inverse[perm[l]] = static_cast<Label>(l);
  LabelRegistry named;
  for (std::size_t c = 0; c < n; ++c) {
    named.intern(p.registry().name(survivors[inverse[c]]));
  }
  return Problem(p.name(), std::move(named), white.build(perm), black.build(perm));
}

Problem apply_renaming(const Problem& p, const std::vector<Label>& perm) {
  assert(perm.size() == p.alphabet_size());
  std::vector<Label> inverse(perm.size(), 0);
  for (std::size_t l = 0; l < perm.size(); ++l) inverse[perm[l]] = static_cast<Label>(l);
  LabelRegistry reg;
  for (std::size_t c = 0; c < perm.size(); ++c) {
    reg.intern(p.registry().name(inverse[c]));
  }
  const auto remap_all = [&](const Constraint& c) {
    Constraint out(c.degree());
    for (const Configuration& cfg : c.members()) {
      std::vector<Label> labels;
      labels.reserve(cfg.size());
      for (const Label l : cfg.labels()) labels.push_back(perm[l]);
      out.add(Configuration(std::move(labels)));
    }
    return out;
  };
  return Problem(p.name(), std::move(reg), remap_all(p.white()), remap_all(p.black()));
}

bool same_constraints(const Problem& a, const Problem& b) {
  return a.alphabet_size() == b.alphabet_size() && a.white() == b.white() &&
         a.black() == b.black();
}

std::optional<std::vector<Label>> equivalent_up_to_renaming(const Problem& a,
                                                            const Problem& b) {
  if (a.alphabet_size() != b.alphabet_size()) return std::nullopt;
  if (a.white().size() != b.white().size() || a.black().size() != b.black().size()) {
    return std::nullopt;
  }
  if (a.white_degree() != b.white_degree() || a.black_degree() != b.black_degree()) {
    return std::nullopt;
  }
  const CanonicalForm ca = canonicalize(a);
  const CanonicalForm cb = canonicalize(b);
  if (ca.fingerprint != cb.fingerprint ||
      !same_constraints(ca.problem, cb.problem)) {
    return std::nullopt;
  }
  // Both sides land on the same canonical labeling, so the witness is the
  // composition a -> canonical -> b.
  std::vector<Label> inv_b(cb.perm.size(), 0);
  for (std::size_t l = 0; l < cb.perm.size(); ++l) {
    inv_b[cb.perm[l]] = static_cast<Label>(l);
  }
  std::vector<Label> map(ca.perm.size(), 0);
  for (std::size_t l = 0; l < ca.perm.size(); ++l) map[l] = inv_b[ca.perm[l]];
  return map;
}

}  // namespace slocal
