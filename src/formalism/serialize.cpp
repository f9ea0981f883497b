#include "src/formalism/serialize.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/util/atomic_file.hpp"

namespace slocal {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Parses exactly 16 lowercase hex digits.
bool parse_hex16(std::string_view text, std::uint64_t* out) {
  if (text.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

constexpr std::string_view kChecksumTag = "checksum ";

/// Splits off the line starting at *pos (without its '\n') and advances
/// *pos past it. A last line without '\n' runs to the end of `text`.
std::string_view next_line(std::string_view text, std::size_t* pos) {
  const std::size_t end = std::min(text.find('\n', *pos), text.size());
  const std::string_view line = text.substr(*pos, end - *pos);
  *pos = std::min(end + 1, text.size());
  return line;
}

}  // namespace

std::uint64_t fnv1a_bytes(std::string_view data) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool read_hex16(std::istream& in, std::uint64_t* out) {
  std::string token;
  return static_cast<bool>(in >> token) && parse_hex16(token, out);
}

std::string seal(std::string_view magic, std::string_view payload) {
  std::string sealed(magic);
  sealed.append("\n").append(kChecksumTag).append(hex16(fnv1a_bytes(payload)));
  sealed.append("\n").append(payload);
  return sealed;
}

bool save_sealed(const std::string& path, std::string_view magic,
                 std::string_view payload, const std::string& context,
                 std::string* error) {
  std::string io_error;
  if (!write_file_atomic(path, seal(magic, payload), &io_error)) {
    return fail(error, context + ": " + io_error);
  }
  return true;
}

bool load_sealed(const std::string& path, std::string_view magic,
                 const std::string& context, std::string* payload,
                 std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return fail(error, context + ": cannot open '" + path + "'");
  std::ostringstream raw;
  raw << file.rdbuf();
  const std::string text = raw.str();

  std::size_t pos = 0;
  const std::string_view line = next_line(text, &pos);
  if (line != magic) {
    // "<family> <version>": the same family under another version is a
    // format this build does not read, not a foreign file.
    const std::string_view family = magic.substr(0, magic.rfind(' ') + 1);
    return fail(error, line.substr(0, family.size()) == family
                           ? context + ": unsupported version ('" +
                                 std::string(line) + "')"
                           : context + ": '" + path + "' is not a " +
                                 std::string(family.substr(0, family.size() - 1)) +
                                 " file");
  }
  const std::string_view checksum_line = next_line(text, &pos);
  std::uint64_t stored = 0;
  if (checksum_line.substr(0, kChecksumTag.size()) != kChecksumTag ||
      !parse_hex16(checksum_line.substr(kChecksumTag.size()), &stored)) {
    return fail(error, context + ": malformed checksum line");
  }
  const std::string_view body = std::string_view(text).substr(pos);
  if (fnv1a_bytes(body) != stored) {
    return fail(error, context + ": payload checksum mismatch (corrupt file)");
  }
  *payload = std::string(body);
  return true;
}

void write_problem(std::ostream& out, const Problem& p) {
  out << "problem " << p.alphabet_size() << ' ' << p.white_degree() << ' '
      << p.black_degree() << ' ' << p.white().size() << ' ' << p.black().size()
      << '\n';
  const auto write_side = [&](char tag, const Constraint& c) {
    for (const Configuration& cfg : c.sorted_members()) {
      out << tag;
      for (const Label l : cfg.labels()) out << ' ' << static_cast<unsigned>(l);
      out << '\n';
    }
  };
  write_side('w', p.white());
  write_side('b', p.black());
}

bool read_problem(std::istream& in, const std::string& name, Problem* out,
                  std::string* error, const std::string& context) {
  std::string tag;
  std::size_t n = 0, dw = 0, db = 0, nw = 0, nb = 0;
  if (!(in >> tag >> n >> dw >> db >> nw >> nb) || tag != "problem") {
    return fail(error, context + ": malformed problem header");
  }
  // Same cap as the parser's 64-label alphabet limit.
  if (n > 64) return fail(error, context + ": alphabet size out of range");
  if (dw == 0 || db == 0 || dw > 64 || db > 64) {
    return fail(error, context + ": degree out of range");
  }
  LabelRegistry reg;
  for (std::size_t c = 0; c < n; ++c) reg.intern(std::to_string(c));
  const auto read_side = [&](char want, std::size_t degree, std::size_t count,
                             Constraint* side) {
    *side = Constraint(degree);
    for (std::size_t i = 0; i < count; ++i) {
      std::string row_tag;
      if (!(in >> row_tag) || row_tag.size() != 1 || row_tag[0] != want) {
        return fail(error, context + ": malformed configuration row");
      }
      std::vector<Label> labels(degree);
      for (std::size_t k = 0; k < degree; ++k) {
        unsigned v = 0;
        if (!(in >> v) || v >= n) {
          return fail(error, context + ": label out of range");
        }
        labels[k] = static_cast<Label>(v);
      }
      if (!side->add(Configuration(std::move(labels)))) {
        return fail(error, context + ": duplicate configuration");
      }
    }
    return true;
  };
  Constraint white, black;
  if (!read_side('w', dw, nw, &white)) return false;
  if (!read_side('b', db, nb, &black)) return false;
  *out = Problem(name, std::move(reg), std::move(white), std::move(black));
  return true;
}

}  // namespace slocal
