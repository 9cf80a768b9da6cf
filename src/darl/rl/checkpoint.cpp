#include "darl/rl/checkpoint.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"

namespace darl::rl {
namespace {

constexpr std::string_view kMagicV1 = "darl-checkpoint-v1";
constexpr std::string_view kMagicV2 = "darl-checkpoint-v2";
constexpr std::string_view kDigestKey = "fnv1a64";

AlgoKind parse_algo(std::string_view algo) {
  if (const auto kind = algo_from_name(algo)) return *kind;
  throw CheckpointError("unknown checkpoint algorithm '" + std::string(algo) +
                        "'");
}

// Numbers are written with std::to_chars and read with std::from_chars.
// A double is written as %.17g (`general` at 17 significant digits): 17
// digits round-trip every finite double bit for bit, and it is the text an
// ostream at precision(17) writes, the format every checkpoint file and
// its digest were written in.

void append_uint(std::string& out, std::uint64_t v, int base = 10) {
  std::array<char, 24> buf;
  const auto r = std::to_chars(buf.data(), buf.data() + buf.size(), v, base);
  out.append(buf.data(), r.ptr);
}

void append_double(std::string& out, double v) {
  std::array<char, 32> buf;
  const auto r = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                               std::chars_format::general, 17);
  out.append(buf.data(), r.ptr);
}

/// Parses the whole of `text` as one number; false on anything else.
template <typename T>
bool parse_number(std::string_view text, T& v) {
  const char* last = text.data() + text.size();
  const auto r = std::from_chars(text.data(), last, v);
  return r.ec == std::errc() && r.ptr == last;
}

/// Appends the v2 payload — everything between the magic line and the
/// digest footer. The footer digests this text exactly as serialized
/// (same helper as the campaign cache), which makes it independent of how
/// the doubles are later parsed.
void append_payload(std::string& out, const Checkpoint& checkpoint) {
  out += algo_name(checkpoint.kind);
  out += ' ';
  append_uint(out, checkpoint.obs_dim);
  out += ' ';
  append_uint(out, checkpoint.action_dim);
  out += ' ';
  append_uint(out, checkpoint.params.size());
  out += '\n';
  for (const double v : checkpoint.params) {
    append_double(out, v);
    out += '\n';
  }
}

/// 16 lower-case hex digits, zero-padded.
std::string digest_hex(std::uint64_t digest) {
  std::string digits;
  append_uint(digits, digest, 16);
  return std::string(16 - digits.size(), '0') + digits;
}

std::string read_all(std::istream& in) {
  std::string text;
  std::array<char, 1 << 14> buf;
  while (in.read(buf.data(), buf.size()) || in.gcount() > 0) {
    text.append(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

/// Splits the next line off `text` as std::getline would (a last line
/// without its '\n' still counts); false when no text is left.
bool next_line(std::string_view& text, std::string_view& line) {
  if (text.empty()) return false;
  const std::size_t end = text.find('\n');
  line = text.substr(0, end);
  text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
  return true;
}

/// Splits off the next whitespace-separated token of `text`; empty when
/// none is left.
std::string_view next_token(std::string_view& text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  std::size_t j = i;
  while (j < text.size() && !std::isspace(static_cast<unsigned char>(text[j]))) {
    ++j;
  }
  const std::string_view token = text.substr(i, j - i);
  text.remove_prefix(j);
  return token;
}

/// Parses the metadata tokens "ALGO obs act count" off `text` into `ck`;
/// returns the parameter count, or nullopt when a token is missing or not
/// a number.
std::optional<std::size_t> parse_metadata(std::string_view& text,
                                          Checkpoint& ck) {
  const std::string_view algo = next_token(text);
  std::size_t count = 0;
  if (algo.empty() || !parse_number(next_token(text), ck.obs_dim) ||
      !parse_number(next_token(text), ck.action_dim) ||
      !parse_number(next_token(text), count)) {
    return std::nullopt;
  }
  ck.kind = parse_algo(algo);
  return count;
}

/// Legacy v1 body: whitespace-separated values, no integrity footer.
Checkpoint load_v1_body(std::string_view body) {
  Checkpoint ck;
  const auto count = parse_metadata(body, ck);
  if (!count) throw CheckpointError("malformed checkpoint metadata");
  // The claimed count sizes nothing: params grow as values parse, so a
  // stream that claims more than it holds costs only what it holds.
  for (std::size_t i = 0; i < *count; ++i) {
    double v = 0.0;
    if (!parse_number(next_token(body), v)) {
      throw CheckpointError("checkpoint truncated at parameter " +
                            std::to_string(i) + " of " +
                            std::to_string(*count));
    }
    ck.params.push_back(v);
  }
  return ck;
}

/// v2 body: one value per line, then the footer digesting the payload
/// text exactly as it stands in the body.
Checkpoint load_v2_body(std::string_view body) {
  std::string_view rest = body;
  std::string_view line;
  if (!next_line(rest, line)) {
    throw CheckpointError("checkpoint truncated before metadata");
  }
  Checkpoint ck;
  std::string_view meta = line;
  const auto count = parse_metadata(meta, ck);
  if (!count || !next_token(meta).empty()) {
    throw CheckpointError("malformed checkpoint metadata '" +
                          std::string(line) + "'");
  }
  // As in v1, params grow as values parse instead of from the count.
  for (std::size_t i = 0; i < *count; ++i) {
    if (!next_line(rest, line)) {
      throw CheckpointError("checkpoint truncated at parameter " +
                            std::to_string(i) + " of " +
                            std::to_string(*count));
    }
    double v = 0.0;
    if (!parse_number(line, v)) {
      throw CheckpointError("unparsable checkpoint parameter " +
                            std::to_string(i) + ": '" + std::string(line) +
                            "'");
    }
    ck.params.push_back(v);
  }
  const std::string_view payload = body.substr(0, body.size() - rest.size());
  if (!next_line(rest, line)) {
    throw CheckpointError("checkpoint truncated before integrity footer");
  }
  std::string_view footer = line;
  const std::string_view key = next_token(footer);
  const std::string_view stored_hex = next_token(footer);
  if (key != kDigestKey || stored_hex.empty()) {
    throw CheckpointError("malformed checkpoint integrity footer '" +
                          std::string(line) + "'");
  }
  const std::string computed_hex = digest_hex(fnv1a64(payload));
  if (stored_hex != computed_hex) {
    throw CheckpointError("checkpoint integrity digest mismatch (stored " +
                          std::string(stored_hex) + ", computed " +
                          computed_hex + ") — file is corrupted");
  }
  return ck;
}

}  // namespace

void save_checkpoint(std::ostream& out, const Checkpoint& checkpoint) {
  // One buffer for the whole file: at most 25 bytes per parameter
  // ("-2.2250738585072014e-308\n") plus the three short lines.
  std::string text;
  text.reserve(128 + 25 * checkpoint.params.size());
  text += kMagicV2;
  text += '\n';
  const std::size_t payload_at = text.size();
  append_payload(text, checkpoint);
  const std::uint64_t digest =
      fnv1a64(std::string_view(text).substr(payload_at));
  text += kDigestKey;
  text += ' ';
  text += digest_hex(digest);
  text += '\n';
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  DARL_CHECK(static_cast<bool>(out), "checkpoint write failed");
}

Checkpoint load_checkpoint(std::istream& in) {
  const std::string text = read_all(in);
  std::string_view body = text;
  std::string_view magic;
  if (!next_line(body, magic)) {
    throw CheckpointError("empty checkpoint stream");
  }
  if (magic == kMagicV2) return load_v2_body(body);
  if (magic == kMagicV1) return load_v1_body(body);
  throw CheckpointError("unrecognized checkpoint header '" +
                        std::string(magic) + "'");
}

void save_checkpoint_file(const std::string& path, const Checkpoint& checkpoint) {
  std::ofstream out(path);
  DARL_CHECK(static_cast<bool>(out), "cannot open '" << path << "' for writing");
  save_checkpoint(out, checkpoint);
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path);
  DARL_CHECK(static_cast<bool>(in), "cannot open '" << path << "' for reading");
  return load_checkpoint(in);
}

}  // namespace darl::rl
