// darl/rl/checkpoint.hpp
//
// Policy checkpointing: persist a trained policy's flat parameter vector
// (plus an interface fingerprint) so a study's winning configuration can be
// re-deployed without retraining — the paper's motivation for choosing a
// good configuration *before* the learning phase is reproduced.
//
// Format v2 adds an integrity footer: an fnv1a64 digest over the payload
// (metadata line + parameter lines, exactly as serialized), so a
// truncated or bit-flipped file fails loading with a typed
// CheckpointError instead of silently deploying garbage weights. Files
// written by the v1 format (no digest) still load.

#pragma once

#include <iosfwd>
#include <string>

#include "darl/common/error.hpp"
#include "darl/linalg/vec.hpp"
#include "darl/rl/types.hpp"

namespace darl::rl {

/// Raised when a checkpoint stream is malformed, truncated, fails its
/// integrity digest, or does not match the architecture it is loaded into.
class CheckpointError : public Error {
 public:
  explicit CheckpointError(const std::string& what_arg) : Error(what_arg) {}
};

/// A saved policy snapshot.
struct Checkpoint {
  AlgoKind kind = AlgoKind::PPO;
  std::size_t obs_dim = 0;
  std::size_t action_dim = 0;
  Vec params;
};

/// Serialize a checkpoint (v2: text header + one base-10 parameter per
/// line as %.17g, which round-trips every double + fnv1a64 payload digest;
/// robust and diffable, adequate for the small policies here). The numbers
/// go through std::to_chars, not the stream's formatting.
void save_checkpoint(std::ostream& out, const Checkpoint& checkpoint);

/// Parse a checkpoint written by save_checkpoint (v2) or by the legacy
/// digest-less v1 format; reads `in` to its end and parses the numbers
/// with std::from_chars. Throws CheckpointError on a malformed, truncated
/// or digest-mismatched stream.
Checkpoint load_checkpoint(std::istream& in);

/// Convenience file wrappers; throw darl::Error on I/O failure and
/// CheckpointError on malformed content.
void save_checkpoint_file(const std::string& path, const Checkpoint& checkpoint);
Checkpoint load_checkpoint_file(const std::string& path);

}  // namespace darl::rl
