// darl/net/wire.hpp
//
// The actor–learner message schema and its codec (DESIGN.md §17), wire
// protocol v3. Each message rides one frame (darl/net/frame.hpp), whose
// fnv1a64 digest guards the payload bytes.
//
// Every message is binary, fixed-width little-endian fields
// (darl/net/le_bytes.hpp); a "string" is a u64 length and that many bytes:
//
//   Hello    u64 protocol, u64 node. The protocol is read first, so a
//            peer of another version fails there with a typed error.
//   Job      the algorithm name as a string; u64 hidden count, then one
//            u64 per hidden size; u64 seed, node, nodes, cores,
//            per_worker, obs_dim, action_dim; the env spec as a string.
//   Weights  u64 version, then the checkpoint-v2 text as a string. The
//            checkpoint is darl's one parameter codec: it carries kind,
//            dims and its own digest, and it is the on-disk format.
//   Batch    u64 worker, version, inferences, steps; f64 env_cost_units;
//            u64 episode count, then (f64 total_reward, f64 score,
//            u64 length) per episode; u64 transition count, then per
//            transition f64 reward, f64 log_prob, one flag byte each for
//            terminated and truncated (0 or 1), and obs, action and
//            next_obs, each a u64 length and that many raw doubles.
//   Bye      u64 node.
//   Stop     empty.
//
// A double crosses as its IEEE-754 bits, so a value decoded on the far
// side is *bitwise* the value encoded (NaN payloads and -0.0 included),
// which keeps the distributed runtime's campaign CSVs byte-identical to
// the in-process path. Every count and length is checked against the
// bytes left in the payload before anything is sized from it, and a short
// payload, a flag byte other than 0 or 1, or trailing bytes are a
// WireError.
//
// Protocol (learner-driven, synchronous per iteration):
//
//   actor -> learner   Hello{protocol, node}            (once, on connect)
//   learner -> actor   Job{algo, seed, topology, env}   (once)
//   learner -> actor   Weights{version, checkpoint}     (per iteration)
//   actor -> learner   Batch{worker, version, cost,     (one per worker
//                            episodes, transitions}      per iteration)
//   learner -> actor   Stop{}                           (once)
//   actor -> learner   Bye{node}                        (once)

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "darl/env/wrappers.hpp"
#include "darl/net/frame.hpp"
#include "darl/rl/checkpoint.hpp"
#include "darl/rl/types.hpp"

namespace darl::net {

/// Frame `type` values. Kept dense and stable: the wire is spoken between
/// binaries built from the same tree, but a decoder still rejects unknown
/// types with a typed error rather than guessing.
enum class MsgType : std::uint32_t {
  Hello = 1,
  Job = 2,
  Weights = 3,
  Batch = 4,
  Stop = 5,
  Bye = 6,
};

const char* msg_type_name(MsgType type);

/// Raised when a frame payload does not parse as its message type.
class WireError : public NetError {
 public:
  explicit WireError(const std::string& what_arg) : NetError(what_arg) {}
};

inline constexpr std::uint64_t kProtocolVersion = 3;

/// Actor's opening handshake.
struct HelloMsg {
  std::uint64_t node = 0;
  std::uint64_t protocol = kProtocolVersion;
};

/// Everything an actor process needs to build its rollout workers. The
/// environment travels as an opaque spec string resolved by the worker
/// binary's registered resolver (darl/net stays case-study-agnostic).
struct JobMsg {
  rl::AlgoKind algo = rl::AlgoKind::PPO;
  std::vector<std::size_t> hidden;
  std::uint64_t seed = 0;
  std::uint64_t node = 0;   ///< which node this actor plays
  std::uint64_t nodes = 0;  ///< total deployment size
  std::uint64_t cores = 0;  ///< workers per node
  std::uint64_t per_worker = 0;  ///< transitions per worker per iteration
  std::uint64_t obs_dim = 0;     ///< interface cross-check
  std::uint64_t action_dim = 0;
  std::string env_spec;
};

/// One versioned parameter publication; `checkpoint` is the full
/// checkpoint-v2 text (its own digest included), so the payload a remote
/// actor loads is verified twice and preserves algorithm extras (e.g.
/// PPO's state-independent log-std tail) that a serving spec would strip.
struct WeightsMsg {
  std::uint64_t version = 0;
  std::string checkpoint;
};

/// One worker's iteration result streamed back to the learner.
struct BatchMsg {
  std::uint64_t worker = 0;   ///< global worker id
  std::uint64_t version = 0;  ///< parameter version the worker acted with
  double env_cost_units = 0.0;
  std::uint64_t inferences = 0;
  std::uint64_t steps = 0;
  /// Episodes finished during this collect (delta, not cumulative).
  std::vector<env::EpisodeRecord> episodes;
  std::vector<rl::Transition> transitions;
};

struct ByeMsg {
  std::uint64_t node = 0;
};

std::string encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(const std::string& payload);
std::string encode_job(const JobMsg& msg);
JobMsg decode_job(const std::string& payload);
std::string encode_weights(const WeightsMsg& msg);
WeightsMsg decode_weights(const std::string& payload);
std::string encode_batch_msg(const BatchMsg& msg);
BatchMsg decode_batch_msg(const std::string& payload);
std::string encode_bye(const ByeMsg& msg);
ByeMsg decode_bye(const std::string& payload);

/// One connected peer: frame I/O plus net.* transport metrics
/// (net.frames_sent/received, net.bytes_sent/received). One thread drives
/// a channel; nothing in it locks.
class MsgChannel {
 public:
  MsgChannel() = default;
  /// Takes over `fd`. With `io_timeout_s` > 0, each send syscall and each
  /// whole received frame must finish within that many seconds (a
  /// FrameError TimedOut otherwise); 0 leaves the fd's own timeouts.
  explicit MsgChannel(OwnedFd fd, double io_timeout_s = 0);

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }

  /// Send one message; throws FrameError on transport failure.
  void send(MsgType type, const std::string& payload);

  /// Receive the next message. Returns false on clean EOF; throws
  /// FrameError on truncation/corruption/timeout.
  bool recv(MsgType& type, std::string& payload);

  /// Expect exactly `want` next; throws WireError on anything else
  /// (including clean EOF).
  std::string expect(MsgType want);

 private:
  OwnedFd fd_;
  double io_timeout_s_ = 0;
};

}  // namespace darl::net
