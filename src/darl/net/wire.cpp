#include "darl/net/wire.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "darl/net/le_bytes.hpp"
#include "darl/obs/metrics.hpp"

namespace darl::net {
namespace {

template <typename T>
T get_value(std::istream& is, const char* what) {
  T v{};
  if (!(is >> v)) throw WireError(std::string("net: bad ") + what + " field");
  return v;
}

/// Reads an element count of a text message and rejects one that the rest
/// of the payload cannot hold: every element takes at least `min_bytes`
/// bytes (one separator and one character per field), so a larger count
/// is a lie.
/// Checking before a buffer is sized from the count bounds what a decoder
/// allocates by a small multiple of the payload, whatever a peer claims.
std::size_t get_count(std::istringstream& is, const char* what,
                      std::size_t min_bytes) {
  const auto n = get_value<std::size_t>(is, what);
  const auto left = static_cast<std::size_t>(
      std::max<std::streamsize>(is.rdbuf()->in_avail(), 0));
  if (n > left / min_bytes) {
    throw WireError(std::string("net: ") + what + " " + std::to_string(n) +
                    " exceeds the " + std::to_string(left) +
                    " bytes left in the payload");
  }
  return n;
}

// The binary messages (Weights, Batch) are fixed-width little-endian
// fields written through darl/net/le_bytes.hpp.
constexpr std::size_t kU64 = 8;
constexpr std::size_t kF64 = 8;
constexpr std::size_t kWeightsHeaderBytes = 2 * kU64;  // version, length
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
  void bytes(const std::string& s) {
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
  std::string bytes(std::size_t n) {
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

void expect_tag(std::istream& is, const char* tag, const char* msg) {
  std::string got;
  if (!(is >> got) || got != tag) {
    throw WireError(std::string("net: malformed ") + msg + " payload (want '" +
                    tag + "', got '" + got + "')");
  }
}

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
  std::ostringstream os;
  os << "hello " << msg.node << ' ' << msg.protocol << '\n';
  return os.str();
}

HelloMsg decode_hello(const std::string& payload) {
  std::istringstream is(payload);
  expect_tag(is, "hello", "Hello");
  HelloMsg msg;
  msg.node = get_value<std::uint64_t>(is, "Hello node");
  msg.protocol = get_value<std::uint64_t>(is, "Hello protocol");
  if (msg.protocol != kProtocolVersion) {
    throw WireError("net: protocol version mismatch (peer speaks " +
                    std::to_string(msg.protocol) + ", this build speaks " +
                    std::to_string(kProtocolVersion) + ")");
  }
  return msg;
}

std::string encode_job(const JobMsg& msg) {
  std::ostringstream os;
  os << "job " << rl::algo_name(msg.algo) << '\n';
  os << "hidden " << msg.hidden.size();
  for (const std::size_t h : msg.hidden) os << ' ' << h;
  os << '\n';
  os << "seed " << msg.seed << '\n';
  os << "topology " << msg.node << ' ' << msg.nodes << ' ' << msg.cores << ' '
     << msg.per_worker << '\n';
  os << "interface " << msg.obs_dim << ' ' << msg.action_dim << '\n';
  os << "env " << msg.env_spec.size() << '\n';
  os << msg.env_spec;
  return os.str();
}

JobMsg decode_job(const std::string& payload) {
  std::istringstream is(payload);
  expect_tag(is, "job", "Job");
  JobMsg msg;
  msg.algo = algo_from_tag(get_value<std::string>(is, "Job algo"));
  expect_tag(is, "hidden", "Job");
  const auto n_hidden = get_count(is, "Job hidden count", 2);
  msg.hidden.resize(n_hidden);
  for (std::size_t i = 0; i < n_hidden; ++i) {
    msg.hidden[i] = get_value<std::size_t>(is, "Job hidden size");
  }
  expect_tag(is, "seed", "Job");
  msg.seed = get_value<std::uint64_t>(is, "Job seed");
  expect_tag(is, "topology", "Job");
  msg.node = get_value<std::uint64_t>(is, "Job node");
  msg.nodes = get_value<std::uint64_t>(is, "Job nodes");
  msg.cores = get_value<std::uint64_t>(is, "Job cores");
  msg.per_worker = get_value<std::uint64_t>(is, "Job per_worker");
  expect_tag(is, "interface", "Job");
  msg.obs_dim = get_value<std::uint64_t>(is, "Job obs_dim");
  msg.action_dim = get_value<std::uint64_t>(is, "Job action_dim");
  expect_tag(is, "env", "Job");
  const auto env_bytes = get_count(is, "Job env length", 1);
  is.get();  // the '\n' terminating the env length line
  std::string spec(env_bytes, '\0');
  is.read(spec.data(), static_cast<std::streamsize>(env_bytes));
  if (static_cast<std::size_t>(is.gcount()) != env_bytes) {
    throw WireError("net: truncated Job env spec");
  }
  msg.env_spec = std::move(spec);
  return msg;
}

std::string encode_weights(const WeightsMsg& msg) {
  std::string out(kWeightsHeaderBytes + msg.checkpoint.size(), '\0');
  Writer w(out);
  w.u64(msg.version);
  w.u64(msg.checkpoint.size());
  w.bytes(msg.checkpoint);
  return out;
}

WeightsMsg decode_weights(const std::string& payload) {
  Reader r(payload, "Weights");
  WeightsMsg msg;
  msg.version = r.u64("version");
  msg.checkpoint = r.bytes(r.count("checkpoint length", 1));
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
  std::ostringstream os;
  os << "bye " << msg.node << '\n';
  return os.str();
}

ByeMsg decode_bye(const std::string& payload) {
  std::istringstream is(payload);
  expect_tag(is, "bye", "Bye");
  ByeMsg msg;
  msg.node = get_value<std::uint64_t>(is, "Bye node");
  return msg;
}

void MsgChannel::send(MsgType type, const std::string& payload) {
  write_frame(fd_.get(), static_cast<std::uint32_t>(type), payload);
  DARL_COUNTER_ADD("net.frames_sent", 1);
  DARL_COUNTER_ADD("net.bytes_sent", kFrameHeaderBytes + payload.size());
}

bool MsgChannel::recv(MsgType& type, std::string& payload) {
  Frame frame;
  if (!read_frame(fd_.get(), frame)) return false;
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
