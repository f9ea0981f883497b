// The original per-label canonical refinement, kept verbatim as the oracle
// for src/formalism/canonical.cpp (see canonical_reference.hpp).
#include "tests/canonical_reference.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>
#include <utility>

namespace slocal {

namespace {

/// Refinement keys and constraint encodings share one integer alphabet;
/// 0xFFFFFFFF / 0xFFFFFFFE are reserved as structural separators (label
/// indices and multiplicities stay far below them).
using Key = std::vector<std::uint32_t>;
constexpr std::uint32_t kSideSep = 0xFFFFFFFFu;
constexpr std::uint32_t kRowSep = 0xFFFFFFFEu;

std::uint64_t fnv1a64(const std::vector<std::uint32_t>& words) {
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

/// The exact canonical-labeling search: Weisfeiler-Leman-style refinement of
/// label classes to a fixpoint, then individualization-refinement
/// backtracking over the first class the refinement could not split. Every
/// branch of a split class is explored, so the minimum encoding over all
/// leaves is invariant under any renaming of the input.
class Canonicalizer {
 public:
  explicit Canonicalizer(const Problem& p) : p_(p), n_(p.alphabet_size()) {
    const auto collect = [](const Constraint& c) {
      std::vector<std::vector<Label>> out;
      out.reserve(c.size());
      for (const Configuration& cfg : c.members()) {
        out.emplace_back(cfg.labels().begin(), cfg.labels().end());
      }
      return out;
    };
    white_ = collect(p.white());
    black_ = collect(p.black());
  }

  CanonicalForm run() {
    if (n_ == 0) {
      CanonicalForm out;
      out.problem = Problem(p_.name(), LabelRegistry{}, p_.white(), p_.black());
      out.fingerprint = fnv1a64(encode({}));
      return out;
    }
    search(std::vector<int>(n_, 0));
    assert(have_best_);

    CanonicalForm out;
    out.perm = best_perm_;
    out.fingerprint = fnv1a64(best_enc_);
    LabelRegistry reg;
    for (std::size_t c = 0; c < n_; ++c) reg.intern(std::to_string(c));
    Constraint white(p_.white_degree());
    for (const auto& cfg : white_) white.add(remap(cfg, best_perm_));
    Constraint black(p_.black_degree());
    for (const auto& cfg : black_) black.add(remap(cfg, best_perm_));
    out.problem =
        Problem(p_.name(), std::move(reg), std::move(white), std::move(black));
    return out;
  }

 private:
  static Configuration remap(const std::vector<Label>& cfg,
                             const std::vector<Label>& perm) {
    std::vector<Label> out;
    out.reserve(cfg.size());
    for (const Label l : cfg) out.push_back(perm[l]);
    return Configuration(std::move(out));
  }

  /// One side's contribution to a label's refinement key: the multiset, over
  /// configurations containing the label, of (own multiplicity, sorted
  /// colors of the whole configuration) rows. Invariant under renaming
  /// because it references labels only through their current colors.
  void append_side_key(const std::vector<std::vector<Label>>& configs, Label l,
                       const std::vector<int>& color, Key& key) const {
    std::vector<Key> rows;
    for (const auto& cfg : configs) {
      std::uint32_t mult = 0;
      for (const Label x : cfg) mult += (x == l) ? 1 : 0;
      if (mult == 0) continue;
      Key row;
      row.reserve(cfg.size() + 1);
      row.push_back(mult);
      std::vector<std::uint32_t> colors;
      colors.reserve(cfg.size());
      for (const Label x : cfg) colors.push_back(static_cast<std::uint32_t>(color[x]));
      std::sort(colors.begin(), colors.end());
      row.insert(row.end(), colors.begin(), colors.end());
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    key.push_back(kSideSep);
    for (const Key& row : rows) {
      key.push_back(kRowSep);
      key.insert(key.end(), row.begin(), row.end());
    }
  }

  /// Drives the color partition to a refinement fixpoint. Colors are
  /// renumbered by sorted key rank each round; keys start with the previous
  /// color, so the renumbering preserves the existing class order and the
  /// result is rank-normalized (0..k-1 in canonical order).
  std::vector<int> refine(std::vector<int> color) const {
    while (true) {
      std::map<Key, int> rank;
      std::vector<Key> keys(n_);
      for (std::size_t l = 0; l < n_; ++l) {
        Key& key = keys[l];
        key.push_back(static_cast<std::uint32_t>(color[l]));
        append_side_key(white_, static_cast<Label>(l), color, key);
        append_side_key(black_, static_cast<Label>(l), color, key);
        rank.emplace(key, 0);
      }
      int next_id = 0;
      for (auto& [key, id] : rank) id = next_id++;
      std::vector<int> next(n_);
      for (std::size_t l = 0; l < n_; ++l) next[l] = rank[keys[l]];
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
    out.reserve(5 + (white_.size() + 1) * (p_.white_degree() + 1) +
                (black_.size() + 1) * (p_.black_degree() + 1));
    out.push_back(static_cast<std::uint32_t>(n_));
    out.push_back(static_cast<std::uint32_t>(p_.white_degree()));
    out.push_back(static_cast<std::uint32_t>(p_.black_degree()));
    out.push_back(static_cast<std::uint32_t>(white_.size()));
    out.push_back(static_cast<std::uint32_t>(black_.size()));
    const auto add_side = [&](const std::vector<std::vector<Label>>& configs) {
      out.push_back(kSideSep);
      std::vector<std::vector<Label>> remapped;
      remapped.reserve(configs.size());
      for (const auto& cfg : configs) {
        std::vector<Label> r;
        r.reserve(cfg.size());
        for (const Label l : cfg) r.push_back(perm[l]);
        std::sort(r.begin(), r.end());
        remapped.push_back(std::move(r));
      }
      std::sort(remapped.begin(), remapped.end());
      for (const auto& r : remapped) {
        for (const Label l : r) out.push_back(l);
      }
    };
    add_side(white_);
    add_side(black_);
    return out;
  }

  const Problem& p_;
  std::size_t n_;
  std::vector<std::vector<Label>> white_;
  std::vector<std::vector<Label>> black_;
  Key best_enc_;
  std::vector<Label> best_perm_;
  bool have_best_ = false;
};

}  // namespace

CanonicalForm canonicalize_reference(const Problem& p) {
  return Canonicalizer(p).run();
}

}  // namespace slocal
