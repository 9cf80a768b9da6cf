#include "darl/net/wire.hpp"

#include <algorithm>
#include <sstream>

#include "darl/obs/metrics.hpp"

namespace darl::net {
namespace {

/// Token-stream writer at checkpoint-v2 round-trip precision: any double
/// that goes through here comes back bitwise-identical on the far side.
std::ostringstream make_writer() {
  std::ostringstream os;
  os.precision(17);
  return os;
}

void put_vec(std::ostream& os, const Vec& v) {
  os << v.size();
  for (std::size_t i = 0; i < v.size(); ++i) os << ' ' << v[i];
  os << '\n';
}

template <typename T>
T get_value(std::istream& is, const char* what) {
  T v{};
  if (!(is >> v)) throw WireError(std::string("net: bad ") + what + " field");
  return v;
}

/// Reads an element count and rejects one that the rest of the payload
/// cannot hold: every element takes at least `min_bytes` bytes (one
/// separator and one character per field), so a larger count is a lie.
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

Vec get_vec(std::istringstream& is, const char* what) {
  const std::size_t n = get_count(is, what, 2);
  Vec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> v[i])) {
      throw WireError(std::string("net: truncated ") + what + " vector");
    }
  }
  return v;
}

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
  auto os = make_writer();
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
  auto os = make_writer();
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
  auto os = make_writer();
  os << "weights " << msg.version << ' ' << msg.checkpoint.size() << '\n';
  os << msg.checkpoint;
  return os.str();
}

WeightsMsg decode_weights(const std::string& payload) {
  std::istringstream is(payload);
  expect_tag(is, "weights", "Weights");
  WeightsMsg msg;
  msg.version = get_value<std::uint64_t>(is, "Weights version");
  const auto bytes = get_count(is, "Weights length", 1);
  is.get();
  std::string text(bytes, '\0');
  is.read(text.data(), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(is.gcount()) != bytes) {
    throw WireError("net: truncated Weights checkpoint");
  }
  msg.checkpoint = std::move(text);
  return msg;
}

std::string encode_batch_msg(const BatchMsg& msg) {
  auto os = make_writer();
  os << "batch " << msg.worker << ' ' << msg.version << '\n';
  os << "cost " << msg.env_cost_units << ' ' << msg.inferences << ' '
     << msg.steps << '\n';
  os << "episodes " << msg.episodes.size() << '\n';
  for (const env::EpisodeRecord& ep : msg.episodes) {
    os << ep.total_reward << ' ' << ep.score << ' ' << ep.length << '\n';
  }
  os << "transitions " << msg.transitions.size() << '\n';
  for (const rl::Transition& t : msg.transitions) {
    os << t.reward << ' ' << t.log_prob << ' ' << (t.terminated ? 1 : 0) << ' '
       << (t.truncated ? 1 : 0) << '\n';
    put_vec(os, t.obs);
    put_vec(os, t.action);
    put_vec(os, t.next_obs);
  }
  return os.str();
}

BatchMsg decode_batch_msg(const std::string& payload) {
  std::istringstream is(payload);
  expect_tag(is, "batch", "Batch");
  BatchMsg msg;
  msg.worker = get_value<std::uint64_t>(is, "Batch worker");
  msg.version = get_value<std::uint64_t>(is, "Batch version");
  expect_tag(is, "cost", "Batch");
  msg.env_cost_units = get_value<double>(is, "Batch env_cost_units");
  msg.inferences = get_value<std::uint64_t>(is, "Batch inferences");
  msg.steps = get_value<std::uint64_t>(is, "Batch steps");
  expect_tag(is, "episodes", "Batch");
  const auto n_eps = get_count(is, "Batch episode count", 6);
  msg.episodes.resize(n_eps);
  for (env::EpisodeRecord& ep : msg.episodes) {
    ep.total_reward = get_value<double>(is, "Batch episode reward");
    ep.score = get_value<double>(is, "Batch episode score");
    ep.length = get_value<std::size_t>(is, "Batch episode length");
  }
  expect_tag(is, "transitions", "Batch");
  const auto n_tr = get_count(is, "Batch transition count", 14);
  msg.transitions.resize(n_tr);
  for (rl::Transition& t : msg.transitions) {
    t.reward = get_value<double>(is, "Batch reward");
    t.log_prob = get_value<double>(is, "Batch log_prob");
    t.terminated = get_value<int>(is, "Batch terminated") != 0;
    t.truncated = get_value<int>(is, "Batch truncated") != 0;
    t.obs = get_vec(is, "Batch obs");
    t.action = get_vec(is, "Batch action");
    t.next_obs = get_vec(is, "Batch next_obs");
  }
  return msg;
}

std::string encode_bye(const ByeMsg& msg) {
  auto os = make_writer();
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
