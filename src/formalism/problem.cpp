#include "src/formalism/problem.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>

namespace slocal {

Problem::Problem(std::string name, LabelRegistry registry, Constraint white,
                 Constraint black)
    : name_(std::move(name)),
      registry_(std::move(registry)),
      white_(std::move(white)),
      black_(std::move(black)) {}

std::string Problem::to_string() const {
  std::string out = name_;
  out += "\nwhite (d=" + std::to_string(white_degree()) + "):\n";
  out += white_.to_string(registry_);
  out += "black (d=" + std::to_string(black_degree()) + "):\n";
  out += black_.to_string(registry_);
  return out;
}

namespace {

/// Signature of a label inside a problem: multiset of (multiplicity)
/// occurrence patterns in white and black constraints. Labels can only map
/// to labels with identical signatures.
struct LabelSignature {
  std::map<std::size_t, std::size_t> white_mult_hist;  // multiplicity -> count
  std::map<std::size_t, std::size_t> black_mult_hist;

  bool operator==(const LabelSignature&) const = default;
};

LabelSignature signature_of(const Problem& p, Label l) {
  LabelSignature s;
  for (const auto& c : p.white().members()) {
    const std::size_t m = c.count(l);
    if (m > 0) ++s.white_mult_hist[m];
  }
  for (const auto& c : p.black().members()) {
    const std::size_t m = c.count(l);
    if (m > 0) ++s.black_mult_hist[m];
  }
  return s;
}

Configuration remap(const Configuration& c, const std::vector<Label>& map) {
  std::vector<Label> out;
  out.reserve(c.size());
  for (const Label l : c.labels()) out.push_back(map[l]);
  return Configuration(std::move(out));
}

bool constraints_match(const Constraint& a, const Constraint& b,
                       const std::vector<Label>& map) {
  if (a.size() != b.size() || a.degree() != b.degree()) return false;
  return std::all_of(a.members().begin(), a.members().end(),
                     [&](const Configuration& c) { return b.contains(remap(c, map)); });
}

bool search_bijection(const Problem& a, const Problem& b,
                      const std::vector<std::vector<Label>>& candidates,
                      std::vector<Label>& map, std::vector<bool>& used,
                      std::size_t next) {
  const std::size_t n = a.alphabet_size();
  if (next == n) {
    return constraints_match(a.white(), b.white(), map) &&
           constraints_match(a.black(), b.black(), map);
  }
  for (const Label target : candidates[next]) {
    if (used[target]) continue;
    map[next] = target;
    used[target] = true;
    if (search_bijection(a, b, candidates, map, used, next + 1)) return true;
    used[target] = false;
  }
  return false;
}

}  // namespace

std::optional<std::vector<Label>> equivalent_up_to_renaming_bruteforce(
    const Problem& a, const Problem& b) {
  if (a.alphabet_size() != b.alphabet_size()) return std::nullopt;
  if (a.white().size() != b.white().size() || a.black().size() != b.black().size()) {
    return std::nullopt;
  }
  if (a.white_degree() != b.white_degree() || a.black_degree() != b.black_degree()) {
    return std::nullopt;
  }
  const std::size_t n = a.alphabet_size();
  std::vector<LabelSignature> sig_b(n);
  for (std::size_t i = 0; i < n; ++i) {
    sig_b[i] = signature_of(b, static_cast<Label>(i));
  }
  std::vector<std::vector<Label>> candidates(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LabelSignature sa = signature_of(a, static_cast<Label>(i));
    for (std::size_t j = 0; j < n; ++j) {
      if (sa == sig_b[j]) candidates[i].push_back(static_cast<Label>(j));
    }
    if (candidates[i].empty()) return std::nullopt;
  }
  std::vector<Label> map(n, 0);
  std::vector<bool> used(n, false);
  if (search_bijection(a, b, candidates, map, used, 0)) return map;
  return std::nullopt;
}

}  // namespace slocal
