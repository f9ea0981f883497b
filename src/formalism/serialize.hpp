// Plain-text serialization shared by every on-disk format in the repository
// (the RE cache, proof certificates, discovery checkpoints): the sealed-file
// envelope they all live in, and the problem rows they all carry.
//
// The envelope. Every format is one sealed file:
//
//   <magic>                      e.g. "slocal-cert 1": format family + version
//   checksum <16 hex digits>     FNV-1a over every raw payload byte
//   <payload…>
//
// load_sealed checks the magic line, then the checksum line (exactly 16
// lowercase hex digits), then the checksum itself, before the caller
// interprets one payload token — so any single-byte flip anywhere in the
// file fails the load with a structured error (tests/fuzz_test.cpp flips
// them all). save_sealed writes through write_file_atomic (write-temp +
// fsync + rename): a process killed mid-save leaves the previous complete
// file or the new complete one, never a torn file (tests/serve_test.cpp
// SIGKILLs saving children at many offsets, for every format).
//
// Problems. One problem is a header line
//
//   problem <alphabet> <white-degree> <black-degree> <|W|> <|B|>
//
// followed by one `w ...` row per white configuration and one `b ...` row
// per black configuration, labels as decimal indices in sorted member
// order. read_problem range-checks every count and label against the same
// caps the problem parser enforces, so a damaged stream is rejected with a
// structured error instead of constructing an out-of-range problem.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "src/formalism/problem.hpp"

namespace slocal {

/// FNV-1a over raw bytes. The envelope checksums the entire payload with
/// this, byte for byte, so any bit flip — including whitespace-preserving
/// ones that token-stream parsing would absorb — fails the load before any
/// content is interpreted.
std::uint64_t fnv1a_bytes(std::string_view data);

/// `v` as exactly 16 lowercase hex digits: the spelling of every checksum
/// and fingerprint field in the on-disk formats.
std::string hex16(std::uint64_t v);

/// Reads one whitespace-delimited token of exactly 16 lowercase hex digits.
bool read_hex16(std::istream& in, std::uint64_t* out);

/// The sealed file for `payload`: "<magic>\nchecksum <hex16>\n<payload>".
std::string seal(std::string_view magic, std::string_view payload);

/// Atomically replaces `path` with seal(magic, payload). On failure returns
/// false with "<context>: <io error>" in *error.
bool save_sealed(const std::string& path, std::string_view magic,
                 std::string_view payload, const std::string& context,
                 std::string* error);

/// Reads a sealed file and stores its verified payload in *payload. The
/// magic line must equal `magic`; a line of the same family with another
/// version is "unsupported version", anything else "not a <family> file".
/// A damaged checksum line or a checksum that does not match the payload
/// bytes fails the load. Errors are prefixed with `context` (e.g.
/// "re-cache"); *payload is only written on success.
bool load_sealed(const std::string& path, std::string_view magic,
                 const std::string& context, std::string* payload,
                 std::string* error);

void write_problem(std::ostream& out, const Problem& p);

/// Parses one serialized problem into *out, giving it `name` and a synthetic
/// registry ("0".."n-1"). On failure returns false and, when `error` is
/// non-null, stores a message prefixed with `context` (e.g. "re-cache").
bool read_problem(std::istream& in, const std::string& name, Problem* out,
                  std::string* error, const std::string& context);

}  // namespace slocal
