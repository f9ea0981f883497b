// The original canonical-labeling implementation, kept as a test oracle.
//
// `canonicalize` (src/formalism/canonical.cpp) refines label colors in one
// pass per round over flat arrays. This file keeps the straightforward
// per-label version it replaced: every label rescans every configuration,
// builds its refinement key as a vector of words, and labels are ranked
// through a std::map over those keys. The two must agree exactly — same
// perm, same fingerprint, same canonical constraints — because certificates
// and the RE cache store canonical fingerprints on disk. Like
// `equivalent_up_to_renaming_bruteforce`, it is slow and only for tests.
#pragma once

#include "src/formalism/canonical.hpp"

namespace slocal {

CanonicalForm canonicalize_reference(const Problem& p);

}  // namespace slocal
