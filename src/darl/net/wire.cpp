#include "darl/net/wire.hpp"

#include <cstring>
#include <utility>

#include "darl/net/le_bytes.hpp"
#include "darl/obs/metrics.hpp"

namespace darl::net {
namespace {

// Every message is fixed-width little-endian fields written through
// darl/net/le_bytes.hpp.
constexpr std::size_t kU64 = 8;
constexpr std::size_t kF64 = 8;
constexpr std::size_t kHelloBytes = 2 * kU64;  // protocol, node
constexpr std::size_t kWeightsHeaderBytes = 2 * kU64;  // version, length
/// seed, node, nodes, cores, per_worker, obs_dim, action_dim.
constexpr std::size_t kJobFieldsBytes = 7 * kU64;
constexpr std::size_t kByeBytes = kU64;  // node
/// worker, version, inferences, steps, env_cost_units.
constexpr std::size_t kBatchHeaderBytes = 4 * kU64 + kF64;
/// total_reward, score, length.
constexpr std::size_t kEpisodeBytes = 2 * kF64 + kU64;
/// reward, log_prob, two flag bytes and three vector lengths: a
/// transition with empty vectors, the shortest one there is.
constexpr std::size_t kMinTransitionBytes = 2 * kF64 + 2 + 3 * kU64;

/// Writes fields at a cursor into a payload sized exactly beforehand.
class Writer {
 public:
  explicit Writer(std::string& out)
      : at_(reinterpret_cast<unsigned char*>(out.data())) {}

  void u64(std::uint64_t v) {
    le::put_u64(at_, v);
    at_ += kU64;
  }
  void f64(double v) {
    le::put_f64(at_, v);
    at_ += kF64;
  }
  void flag(bool v) { *at_++ = v ? 1 : 0; }
  void vec(const Vec& v) {
    u64(v.size());
    le::put_f64s(at_, v.data(), v.size());
    at_ += v.size() * kF64;
  }
  /// A u64 length, then the bytes.
  void text(const std::string& s) {
    u64(s.size());
    if (!s.empty()) std::memcpy(at_, s.data(), s.size());
    at_ += s.size();
  }

 private:
  unsigned char* at_;
};

/// Reads fields off a payload. Every read is checked against the bytes
/// left, so a short payload is a WireError and never a read past its end.
class Reader {
 public:
  Reader(const std::string& payload, const char* msg)
      : at_(reinterpret_cast<const unsigned char*>(payload.data())),
        end_(at_ + payload.size()),
        msg_(msg) {}

  std::uint64_t u64(const char* what) {
    need(kU64, what);
    const std::uint64_t v = le::get_u64(at_);
    at_ += kU64;
    return v;
  }
  double f64(const char* what) {
    need(kF64, what);
    const double v = le::get_f64(at_);
    at_ += kF64;
    return v;
  }
  bool flag(const char* what) {
    need(1, what);
    const unsigned char b = *at_++;
    if (b > 1) {
      throw WireError(std::string("net: ") + msg_ + " " + what +
                      " flag byte " + std::to_string(b) + " is neither 0 nor 1");
    }
    return b == 1;
  }
  /// A count of elements that each take at least `min_bytes`: one the
  /// rest of the payload cannot hold is a lie, refused before anything is
  /// sized from it.
  std::size_t count(const char* what, std::size_t min_bytes) {
    const std::uint64_t n = u64(what);
    if (n > left() / min_bytes) {
      throw WireError(std::string("net: ") + msg_ + " " + what + " " +
                      std::to_string(n) + " exceeds the " +
                      std::to_string(left()) + " bytes left in the payload");
    }
    return static_cast<std::size_t>(n);
  }
  Vec vec(const char* what) {
    const std::size_t n = count(what, kF64);
    Vec v(n);
    le::get_f64s(at_, v.data(), n);
    at_ += n * kF64;
    return v;
  }
  /// A u64 length, checked against the bytes left, then the bytes.
  std::string text(const char* what) {
    const std::size_t n = count(what, 1);
    std::string s(reinterpret_cast<const char*>(at_), n);
    at_ += n;
    return s;
  }
  void finish() const {
    if (at_ != end_) {
      throw WireError(std::string("net: ") + std::to_string(left()) +
                      " trailing bytes after the " + msg_ + " payload");
    }
  }

 private:
  std::size_t left() const { return static_cast<std::size_t>(end_ - at_); }
  void need(std::size_t n, const char* what) const {
    if (left() < n) {
      throw WireError(std::string("net: truncated ") + msg_ + " payload at " +
                      what);
    }
  }

  const unsigned char* at_;
  const unsigned char* end_;
  const char* msg_;
};

rl::AlgoKind algo_from_tag(const std::string& tag) {
  if (const auto kind = rl::algo_from_name(tag)) return *kind;
  throw WireError("net: unknown algorithm tag '" + tag + "'");
}

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::Hello: return "Hello";
    case MsgType::Job: return "Job";
    case MsgType::Weights: return "Weights";
    case MsgType::Batch: return "Batch";
    case MsgType::Stop: return "Stop";
    case MsgType::Bye: return "Bye";
  }
  return "unknown";
}

std::string encode_hello(const HelloMsg& msg) {
  std::string out(kHelloBytes, '\0');
  Writer w(out);
  w.u64(msg.protocol);
  w.u64(msg.node);
  return out;
}

HelloMsg decode_hello(const std::string& payload) {
  Reader r(payload, "Hello");
  HelloMsg msg;
  // The version is read before anything else, so a peer of any other
  // protocol, the text Hellos of 1 and 2 included, fails right here.
  msg.protocol = r.u64("protocol");
  if (msg.protocol != kProtocolVersion) {
    throw WireError("net: protocol version mismatch (peer speaks " +
                    std::to_string(msg.protocol) + ", this build speaks " +
                    std::to_string(kProtocolVersion) + ")");
  }
  msg.node = r.u64("node");
  r.finish();
  return msg;
}

std::string encode_job(const JobMsg& msg) {
  const std::string algo = rl::algo_name(msg.algo);
  std::string out(kU64 + algo.size() + kU64 + msg.hidden.size() * kU64 +
                      kJobFieldsBytes + kU64 + msg.env_spec.size(),
                  '\0');
  Writer w(out);
  w.text(algo);
  w.u64(msg.hidden.size());
  for (const std::size_t h : msg.hidden) w.u64(h);
  w.u64(msg.seed);
  w.u64(msg.node);
  w.u64(msg.nodes);
  w.u64(msg.cores);
  w.u64(msg.per_worker);
  w.u64(msg.obs_dim);
  w.u64(msg.action_dim);
  w.text(msg.env_spec);
  return out;
}

JobMsg decode_job(const std::string& payload) {
  Reader r(payload, "Job");
  JobMsg msg;
  msg.algo = algo_from_tag(r.text("algorithm length"));
  msg.hidden.resize(r.count("hidden count", kU64));
  for (std::size_t& h : msg.hidden) h = r.u64("hidden size");
  msg.seed = r.u64("seed");
  msg.node = r.u64("node");
  msg.nodes = r.u64("nodes");
  msg.cores = r.u64("cores");
  msg.per_worker = r.u64("per_worker");
  msg.obs_dim = r.u64("obs_dim");
  msg.action_dim = r.u64("action_dim");
  msg.env_spec = r.text("env length");
  r.finish();
  return msg;
}

std::string encode_weights(const WeightsMsg& msg) {
  std::string out(kWeightsHeaderBytes + msg.checkpoint.size(), '\0');
  Writer w(out);
  w.u64(msg.version);
  w.text(msg.checkpoint);
  return out;
}

WeightsMsg decode_weights(const std::string& payload) {
  Reader r(payload, "Weights");
  WeightsMsg msg;
  msg.version = r.u64("version");
  msg.checkpoint = r.text("checkpoint length");
  r.finish();
  return msg;
}

std::string encode_batch_msg(const BatchMsg& msg) {
  std::size_t size = kBatchHeaderBytes + kU64 +
                     msg.episodes.size() * kEpisodeBytes + kU64;
  for (const rl::Transition& t : msg.transitions) {
    size += kMinTransitionBytes +
            (t.obs.size() + t.action.size() + t.next_obs.size()) * kF64;
  }
  std::string out(size, '\0');
  Writer w(out);
  w.u64(msg.worker);
  w.u64(msg.version);
  w.u64(msg.inferences);
  w.u64(msg.steps);
  w.f64(msg.env_cost_units);
  w.u64(msg.episodes.size());
  for (const env::EpisodeRecord& ep : msg.episodes) {
    w.f64(ep.total_reward);
    w.f64(ep.score);
    w.u64(ep.length);
  }
  w.u64(msg.transitions.size());
  for (const rl::Transition& t : msg.transitions) {
    w.f64(t.reward);
    w.f64(t.log_prob);
    w.flag(t.terminated);
    w.flag(t.truncated);
    w.vec(t.obs);
    w.vec(t.action);
    w.vec(t.next_obs);
  }
  return out;
}

BatchMsg decode_batch_msg(const std::string& payload) {
  Reader r(payload, "Batch");
  BatchMsg msg;
  msg.worker = r.u64("worker");
  msg.version = r.u64("version");
  msg.inferences = r.u64("inferences");
  msg.steps = r.u64("steps");
  msg.env_cost_units = r.f64("env_cost_units");
  msg.episodes.resize(r.count("episode count", kEpisodeBytes));
  for (env::EpisodeRecord& ep : msg.episodes) {
    ep.total_reward = r.f64("episode reward");
    ep.score = r.f64("episode score");
    ep.length = r.u64("episode length");
  }
  msg.transitions.resize(r.count("transition count", kMinTransitionBytes));
  for (rl::Transition& t : msg.transitions) {
    t.reward = r.f64("reward");
    t.log_prob = r.f64("log_prob");
    t.terminated = r.flag("terminated");
    t.truncated = r.flag("truncated");
    t.obs = r.vec("obs length");
    t.action = r.vec("action length");
    t.next_obs = r.vec("next_obs length");
  }
  r.finish();
  return msg;
}

std::string encode_bye(const ByeMsg& msg) {
  std::string out(kByeBytes, '\0');
  Writer w(out);
  w.u64(msg.node);
  return out;
}

ByeMsg decode_bye(const std::string& payload) {
  Reader r(payload, "Bye");
  ByeMsg msg;
  msg.node = r.u64("node");
  r.finish();
  return msg;
}

MsgChannel::MsgChannel(OwnedFd fd, double io_timeout_s)
    : fd_(std::move(fd)), io_timeout_s_(io_timeout_s) {
  if (io_timeout_s_ > 0.0) set_io_timeout(fd_.get(), io_timeout_s_);
}

void MsgChannel::send(MsgType type, const std::string& payload) {
  write_frame(fd_.get(), static_cast<std::uint32_t>(type), payload);
  DARL_COUNTER_ADD("net.frames_sent", 1);
  DARL_COUNTER_ADD("net.bytes_sent", kFrameHeaderBytes + payload.size());
}

bool MsgChannel::recv(MsgType& type, std::string& payload) {
  Frame frame;
  if (!read_frame(fd_.get(), frame, io_timeout_s_)) return false;
  type = static_cast<MsgType>(frame.type);
  payload = std::move(frame.payload);
  DARL_COUNTER_ADD("net.frames_received", 1);
  DARL_COUNTER_ADD("net.bytes_received", kFrameHeaderBytes + payload.size());
  return true;
}

std::string MsgChannel::expect(MsgType want) {
  MsgType got{};
  std::string payload;
  if (!recv(got, payload)) {
    throw WireError(std::string("net: peer closed while waiting for ") +
                    msg_type_name(want));
  }
  if (got != want) {
    throw WireError(std::string("net: expected ") + msg_type_name(want) +
                    ", got " + msg_type_name(got));
  }
  return payload;
}

}  // namespace darl::net
