// Canonical labeling of problems up to label renaming.
//
// Two problems are the same object of the black-white formalism when a label
// bijection maps one's constraints exactly onto the other's (the equivalence
// the fixed-point lemmas — 5.4, 6.x — quantify over). `canonicalize` picks a
// distinguished representative of each equivalence class deterministically:
// renaming-equivalent problems canonicalize to structurally identical
// problems (same constraint sets over the same label indices) and to the
// same 64-bit fingerprint, so "already seen up to renaming?" becomes one
// hash probe instead of a pairwise bijection search.
//
// Algorithm: iterated signature refinement (a 1-dimensional Weisfeiler-Leman
// pass over the labels' occurrence patterns, the `LabelSignature` idea from
// problem.cpp driven to a fixpoint), then individualization-refinement
// backtracking over the surviving label classes, keeping the permutation
// whose constraint encoding is lexicographically least. Exact — never a
// heuristic tie-break — so the canonical form is a total invariant.
//
// A refinement round is one pass over each side's configurations. Each
// configuration's multiset of label colors is ranked once: packed into a
// 64-bit word (color c's count in nibble 15 - c, so a lexicographically
// smaller sorted color tuple is a larger word) when at most 16 colors and
// degree <= 15, else as a sorted tuple. Visiting configurations in rank
// order, every label they contain gets a (multiplicity, rank) row in a flat
// slot array laid out once per search, so each label's rows come out
// sorted without a per-label scan. Labels are then ranked by (previous
// color, white rows, black rows). That order reproduces the original
// word-vector keys [color, S, (R row)*, S, (R row)*] with separators R < S
// exactly, including their asymmetry: a white row list that is a proper
// prefix of another sorts after it (it meets S where the other has R), a
// black one before it (the key ends). The canonical perm and fingerprint
// therefore match those stored in certificates and RE caches written by
// earlier builds.
#pragma once

#include <cstdint>
#include <vector>

#include "src/formalism/problem.hpp"

namespace slocal {

/// The canonical representative of a problem's renaming class.
struct CanonicalForm {
  /// Canonical problem: name preserved, labels renamed to "0".."n-1" in
  /// canonical order (synthetic names — the canonical form must not depend
  /// on the input's label names).
  Problem problem;
  /// The renaming that was applied: perm[original_label] = canonical_label.
  /// apply_renaming(input, perm) reproduces `problem` up to label names.
  std::vector<Label> perm;
  /// 64-bit fingerprint of the canonical constraint encoding. Equal for
  /// every member of the renaming class; collisions between distinct
  /// classes are possible (2^-64-ish), so exact users compare `problem`.
  std::uint64_t fingerprint = 0;
};

/// Computes the canonical form. Cost: a refinement round is one pass over
/// the constraints plus two sorts, of the configurations by color multiset
/// and of the n labels by their rows; the backtracking only branches inside
/// label classes the refinement could not split (symmetric labels), which
/// stay tiny for every problem family in this repository.
CanonicalForm canonicalize(const Problem& p);

/// The fingerprint alone: runs the same search as canonicalize but does not
/// build the canonical problem.
std::uint64_t canonical_fingerprint(const Problem& p);

/// Applies a label bijection: configuration labels are remapped through
/// `perm` (perm[old] = new) and registry names travel with their labels.
/// Precondition: perm is a permutation of [0, p.alphabet_size()).
Problem apply_renaming(const Problem& p, const std::vector<Label>& perm);

/// True when the two problems have identical constraints (degrees, sizes,
/// and members) — the name- and registry-blind comparison canonical forms
/// are compared with.
bool same_constraints(const Problem& a, const Problem& b);

}  // namespace slocal
