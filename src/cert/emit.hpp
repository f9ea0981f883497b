// Certificate emission — the *untrusted* side of the certificate story.
//
// These builders run the regular engines (round elimination + relaxation
// search for sequences, the lift encoder + CDCL solver for unsolvability)
// and package their byproducts — witnesses, fingerprints, DRAT traces —
// into the container of src/cert/format.hpp. Everything here may be as
// buggy as the engines themselves; the point is that the output is checked
// by src/cert/check.hpp, which shares no search code with any of it.
//
// This header lives in the cert/ directory but links against re/ and
// solver/ (the umbrella `slocal` library); the standalone cert_check binary
// must not — and does not — include it.
#pragma once

#include <optional>

#include "src/cert/format.hpp"
#include "src/graph/bipartite.hpp"
#include "src/re/round_elimination.hpp"
#include "src/re/sequence.hpp"

namespace slocal::cert {

/// Verifies `problems` as a lower bound sequence (witnesses kept) and packs
/// a sequence certificate. nullopt when the sequence does not verify —
/// refuted or budget-exhausted, see *report (filled when non-null) — since
/// an unverified claim has no certificate.
std::optional<Certificate> make_sequence_certificate(
    const std::vector<Problem>& problems, const REOptions& options = {},
    SequenceReport* report = nullptr);

/// Decides lift_{Δ,r}(pi) on `g` from scratch with DRAT logging armed and
/// packs a lift-unsat certificate. nullopt unless the answer is a definitive
/// kUnsat (a solvable or budget-exhausted instance has nothing to certify,
/// and (Δ, r) outside lift_parameter_error's range is refused).
/// Certificate emission always re-encodes from scratch: the incremental
/// sweep interleaves many supports through one solver, which would tangle
/// their proofs together.
std::optional<Certificate> make_lift_unsat_certificate(const Problem& pi,
                                                       std::size_t big_delta,
                                                       std::size_t big_r,
                                                       const BipartiteGraph& g,
                                                       SearchBudget* budget = nullptr);

}  // namespace slocal::cert
