// The "slocal-discover 1" frontier checkpoint — crash-safe persistence for
// long discovery runs. It is a sealed file (src/formalism/serialize.hpp: magic
// line, whole-payload FNV-1a checksum, atomic save), so a single-byte flip
// anywhere fails the load and a SIGKILL mid-save never leaves a torn file.
// The payload carries the search invariants a resumed run needs to be
// outcome-equivalent to an uninterrupted one: the target, the steering
// counters (expansions, nodes spent), the definitiveness flag, the visited
// fingerprint set, and every frontier node with its score, insertion
// sequence, chain problems (structure only — canonical registries are
// synthetic), and per-element fingerprints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/formalism/problem.hpp"

namespace slocal::discover {

/// One open chain on the frontier. Scores are persisted (not re-derived) so
/// a resume expands in exactly the order the interrupted run would have.
struct FrontierNode {
  std::uint64_t score = 0;
  std::uint64_t seq = 0;  ///< insertion order, the deterministic tie-break
  std::vector<Problem> chain;
  std::vector<std::uint64_t> fingerprints;  ///< canonical, per element
};

struct FrontierCheckpoint {
  std::size_t target_length = 1;
  std::uint64_t next_seq = 0;
  std::uint64_t expansions = 0;   ///< steering + max_expansions accounting
  std::uint64_t nodes_spent = 0;  ///< steering: deterministic engine-node sum
  std::uint64_t finds_emitted = 0;
  /// False once any beam eviction or engine resource failure happened: an
  /// empty frontier then means "exhausted", not a definitive "none".
  bool definitive = true;
  std::vector<std::uint64_t> visited;      ///< sorted ascending
  std::vector<FrontierNode> frontier;      ///< (score, seq) order
};

/// The exact byte stream `save` persists; exposed so tests can tear it.
std::string serialize_frontier_checkpoint(const FrontierCheckpoint& cp);

/// Atomic write of serialize_frontier_checkpoint. False on I/O failure.
bool save_frontier_checkpoint(const FrontierCheckpoint& cp, const std::string& path,
                              std::string* error);

/// Exhaustive validation: the envelope, token grammar, counts, label ranges,
/// sortedness, and per-element fingerprint consistency. Rejects the whole file on any mismatch (*out untouched) —
/// a damaged checkpoint can never seed a wrong search state.
bool load_frontier_checkpoint(const std::string& path, FrontierCheckpoint* out,
                              std::string* error);

}  // namespace slocal::discover
