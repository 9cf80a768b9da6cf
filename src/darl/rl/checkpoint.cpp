#include "darl/rl/checkpoint.hpp"

#include <cinttypes>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"

namespace darl::rl {
namespace {

constexpr const char* kMagicV1 = "darl-checkpoint-v1";
constexpr const char* kMagicV2 = "darl-checkpoint-v2";
constexpr const char* kDigestKey = "fnv1a64";

AlgoKind parse_algo(const std::string& algo) {
  if (const auto kind = algo_from_name(algo)) return *kind;
  throw CheckpointError("unknown checkpoint algorithm '" + algo + "'");
}

/// The v2 payload — everything between the magic line and the digest
/// footer, exactly as serialized. Digesting the serialized text (same
/// helper as the campaign cache) makes the footer independent of how the
/// doubles are later parsed.
std::string serialize_payload(const Checkpoint& checkpoint) {
  std::ostringstream payload;
  payload.precision(17);
  payload << algo_name(checkpoint.kind) << ' ' << checkpoint.obs_dim << ' '
          << checkpoint.action_dim << ' ' << checkpoint.params.size() << '\n';
  for (double v : checkpoint.params) payload << v << '\n';
  return payload.str();
}

std::string digest_hex(std::uint64_t digest) {
  std::ostringstream oss;
  oss << std::hex << std::setw(16) << std::setfill('0') << digest;
  return oss.str();
}

/// Parse one metadata line "ALGO obs act count" into `ck`; returns the
/// parameter count.
std::size_t parse_metadata(const std::string& line, Checkpoint& ck) {
  std::istringstream meta(line);
  std::string algo;
  std::size_t obs_dim = 0, action_dim = 0, count = 0;
  if (!(meta >> algo >> obs_dim >> action_dim >> count)) {
    throw CheckpointError("malformed checkpoint metadata '" + line + "'");
  }
  ck.kind = parse_algo(algo);
  ck.obs_dim = obs_dim;
  ck.action_dim = action_dim;
  return count;
}

/// Legacy v1 body: whitespace-separated values, no integrity footer.
Checkpoint load_v1_body(std::istream& in) {
  Checkpoint ck;
  std::string algo;
  std::size_t obs_dim = 0, action_dim = 0, count = 0;
  if (!(in >> algo >> obs_dim >> action_dim >> count)) {
    throw CheckpointError("malformed checkpoint metadata");
  }
  ck.kind = parse_algo(algo);
  ck.obs_dim = obs_dim;
  ck.action_dim = action_dim;
  // The claimed count sizes nothing: params grow as values parse, so a
  // stream that claims more than it holds costs only what it holds.
  for (std::size_t i = 0; i < count; ++i) {
    double v = 0.0;
    if (!(in >> v)) {
      throw CheckpointError("checkpoint truncated at parameter " +
                            std::to_string(i) + " of " + std::to_string(count));
    }
    ck.params.push_back(v);
  }
  return ck;
}

/// v2 body: line-oriented so the payload text can be rebuilt verbatim for
/// digest verification.
Checkpoint load_v2_body(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw CheckpointError("checkpoint truncated before metadata");
  }
  std::string payload = line + '\n';
  Checkpoint ck;
  const std::size_t count = parse_metadata(line, ck);
  // As in v1, params grow as values parse instead of from the count.
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      throw CheckpointError("checkpoint truncated at parameter " +
                            std::to_string(i) + " of " + std::to_string(count));
    }
    payload += line;
    payload += '\n';
    std::istringstream value(line);
    double v = 0.0;
    if (!(value >> v)) {
      throw CheckpointError("unparsable checkpoint parameter " +
                            std::to_string(i) + ": '" + line + "'");
    }
    ck.params.push_back(v);
  }
  if (!std::getline(in, line)) {
    throw CheckpointError("checkpoint truncated before integrity footer");
  }
  std::istringstream footer(line);
  std::string key, stored_hex;
  if (!(footer >> key >> stored_hex) || key != kDigestKey) {
    throw CheckpointError("malformed checkpoint integrity footer '" + line +
                          "'");
  }
  const std::string computed_hex = digest_hex(fnv1a64(payload));
  if (stored_hex != computed_hex) {
    throw CheckpointError("checkpoint integrity digest mismatch (stored " +
                          stored_hex + ", computed " + computed_hex +
                          ") — file is corrupted");
  }
  return ck;
}

}  // namespace

void save_checkpoint(std::ostream& out, const Checkpoint& checkpoint) {
  const std::string payload = serialize_payload(checkpoint);
  out << kMagicV2 << '\n'
      << payload << kDigestKey << ' ' << digest_hex(fnv1a64(payload)) << '\n';
  DARL_CHECK(static_cast<bool>(out), "checkpoint write failed");
}

Checkpoint load_checkpoint(std::istream& in) {
  std::string magic;
  if (!std::getline(in, magic)) {
    throw CheckpointError("empty checkpoint stream");
  }
  if (magic == kMagicV2) return load_v2_body(in);
  if (magic == kMagicV1) return load_v1_body(in);
  throw CheckpointError("unrecognized checkpoint header '" + magic + "'");
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
