// tests/test_net.cpp — the socket transport and the multi-process
// actor–learner runtime: endpoint parsing, frame integrity over a real
// socketpair (round-trips, truncation, digest mismatch, fragmentation,
// connection reset mid-message, the whole-frame deadline), the wire codec
// for every message type, the learner's checks on what actors send, its
// bounded failure detection (stalled, trickling, closed and killed
// actors), and the acceptance bar — a loopback 2-actor training run whose
// TrainResult matches the in-process backend bit for bit (DESIGN.md §17).

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "darl/airdrop/airdrop_env.hpp"
#include "darl/airdrop/spec.hpp"
#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/frameworks/backend.hpp"
#include "darl/frameworks/distributed.hpp"
#include "darl/net/frame.hpp"
#include "darl/net/socket.hpp"
#include "darl/net/wire.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/rl/checkpoint.hpp"
#include "darl/rl/factory.hpp"

namespace {

using namespace darl;

/// A connected AF_UNIX stream pair wrapped in OwnedFds.
struct FdPair {
  net::OwnedFd a, b;
  FdPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a.reset(fds[0]);
    b.reset(fds[1]);
  }
};

std::string unique_sock_path(const char* tag) {
  return "/tmp/darl_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------------------
// Endpoint

TEST(NetEndpoint, ParsesAndRoundTrips) {
  const net::Endpoint tcp = net::Endpoint::parse("tcp:8080");
  EXPECT_EQ(tcp.kind, net::Endpoint::Kind::Tcp);
  EXPECT_EQ(tcp.port, 8080);
  EXPECT_EQ(tcp.str(), "tcp:8080");

  const net::Endpoint ux = net::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(ux.kind, net::Endpoint::Kind::Unix);
  EXPECT_EQ(ux.path, "/tmp/x.sock");
  EXPECT_EQ(ux.str(), "unix:/tmp/x.sock");
}

TEST(NetEndpoint, RejectsMalformed) {
  EXPECT_THROW(net::Endpoint::parse("http:80"), InvalidArgument);
  EXPECT_THROW(net::Endpoint::parse("tcp:notaport"), InvalidArgument);
  EXPECT_THROW(net::Endpoint::parse("tcp:-1"), InvalidArgument);
  EXPECT_THROW(net::Endpoint::parse("unix:"), InvalidArgument);
  EXPECT_THROW(net::Endpoint::parse(""), InvalidArgument);
}

TEST(NetSocket, ConnectDeadlineLapsesAgainstDeadPort) {
  // A Unix path nobody listens on: connect retries until the deadline,
  // then throws NetError (never hangs).
  const net::Endpoint ep = net::Endpoint::parse("unix:/tmp/darl_nobody.sock");
  EXPECT_THROW(net::connect_endpoint(ep, /*deadline_s=*/0.2), net::NetError);
}

TEST(NetSocket, ListenerResolvesEphemeralPortAndAccepts) {
  net::Listener listener =
      net::listen_endpoint(net::Endpoint::parse("tcp:0"));
  ASSERT_TRUE(listener.valid());
  EXPECT_GT(listener.endpoint().port, 0);

  net::OwnedFd client =
      net::connect_endpoint(listener.endpoint(), /*deadline_s=*/5.0);
  ASSERT_TRUE(client.valid());
  net::OwnedFd server = net::accept_retry(listener.fd());
  ASSERT_TRUE(server.valid());

  ASSERT_EQ(net::send_all(client.get(), "ping").status, net::IoStatus::Ok);
  char buf[4];
  const net::IoResult got = net::recv_exact(server.get(), buf, 4);
  ASSERT_EQ(got.status, net::IoStatus::Ok);
  EXPECT_EQ(std::string(buf, 4), "ping");
}

// ---------------------------------------------------------------------------
// Frames

TEST(NetFrame, RoundTripsOverSocketpair) {
  FdPair p;
  const std::string payload = "hello frame \x01\x00\xff payload";
  net::write_frame(p.a.get(), 42, payload);

  net::Frame frame;
  ASSERT_TRUE(net::read_frame(p.b.get(), frame));
  EXPECT_EQ(frame.type, 42u);
  EXPECT_EQ(frame.payload, payload);

  // Clean EOF at a frame boundary is a false return, not an error.
  p.a.reset();
  EXPECT_FALSE(net::read_frame(p.b.get(), frame));
}

TEST(NetFrame, OneBytePerSendStillDecodes) {
  // A pathologically fragmenting sender: the reader's partial-read loops
  // must reassemble the frame regardless of segmentation.
  FdPair p;
  const std::string payload(300, 'z');
  unsigned char header[net::kFrameHeaderBytes];
  net::encode_frame_header(7, payload, header);
  std::string wire(reinterpret_cast<const char*>(header), sizeof(header));
  wire += payload;

  std::thread sender([&] {
    for (const char c : wire) {
      ASSERT_EQ(net::send_all(p.a.get(), &c, 1).status, net::IoStatus::Ok);
    }
    p.a.reset();
  });
  net::Frame frame;
  ASSERT_TRUE(net::read_frame(p.b.get(), frame));
  sender.join();
  EXPECT_EQ(frame.type, 7u);
  EXPECT_EQ(frame.payload, payload);
}

TEST(NetFrame, DeadlineBoundsTheWholeFrame) {
  // A peer that sends a byte every 100 ms never leaves one recv waiting
  // long; the frame's deadline must still end the read after 0.3 s.
  FdPair p;
  const std::string payload(40, 'd');
  unsigned char header[net::kFrameHeaderBytes];
  net::encode_frame_header(7, payload, header);
  std::string wire(reinterpret_cast<const char*>(header), sizeof(header));
  wire += payload;

  std::thread sender([&] {
    for (const char c : wire) {
      if (net::send_all(p.a.get(), &c, 1).status != net::IoStatus::Ok) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  const Stopwatch clock;
  net::Frame frame;
  try {
    net::read_frame(p.b.get(), frame, /*timeout_s=*/0.3);
    ADD_FAILURE() << "read a frame that takes 6.4 s to arrive";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.kind(), net::FrameError::Kind::TimedOut);
  }
  EXPECT_LT(clock.seconds(), 1.0);
  p.b.reset();  // the sender's next byte fails, which ends it
  sender.join();
}

TEST(NetFrame, TruncatedPayloadIsTypedError) {
  FdPair p;
  const std::string payload = "will be cut short";
  unsigned char header[net::kFrameHeaderBytes];
  net::encode_frame_header(3, payload, header);
  ASSERT_EQ(net::send_all(p.a.get(), header, sizeof(header)).status,
            net::IoStatus::Ok);
  ASSERT_EQ(net::send_all(p.a.get(), payload.data(), 5).status,
            net::IoStatus::Ok);
  p.a.reset();  // EOF mid-payload

  net::Frame frame;
  try {
    net::read_frame(p.b.get(), frame);
    FAIL() << "expected FrameError";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.kind(), net::FrameError::Kind::Truncated);
  }
}

TEST(NetFrame, TruncatedHeaderIsTypedError) {
  FdPair p;
  unsigned char header[net::kFrameHeaderBytes];
  net::encode_frame_header(3, "x", header);
  ASSERT_EQ(net::send_all(p.a.get(), header, 10).status, net::IoStatus::Ok);
  p.a.reset();  // EOF mid-header

  net::Frame frame;
  try {
    net::read_frame(p.b.get(), frame);
    FAIL() << "expected FrameError";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.kind(), net::FrameError::Kind::Truncated);
  }
}

TEST(NetFrame, CorruptedPayloadFailsDigest) {
  FdPair p;
  const std::string payload = "checksummed content";
  unsigned char header[net::kFrameHeaderBytes];
  net::encode_frame_header(3, payload, header);
  std::string corrupted = payload;
  corrupted[4] ^= 0x20;  // same length, one flipped bit
  ASSERT_EQ(net::send_all(p.a.get(), header, sizeof(header)).status,
            net::IoStatus::Ok);
  ASSERT_EQ(net::send_all(p.a.get(), corrupted).status, net::IoStatus::Ok);

  net::Frame frame;
  try {
    net::read_frame(p.b.get(), frame);
    FAIL() << "expected FrameError";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.kind(), net::FrameError::Kind::BadDigest);
  }
}

TEST(NetFrame, BadMagicRejected) {
  FdPair p;
  unsigned char header[net::kFrameHeaderBytes];
  net::encode_frame_header(3, "x", header);
  header[0] ^= 0xff;
  ASSERT_EQ(net::send_all(p.a.get(), header, sizeof(header)).status,
            net::IoStatus::Ok);

  net::Frame frame;
  try {
    net::read_frame(p.b.get(), frame);
    FAIL() << "expected FrameError";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.kind(), net::FrameError::Kind::BadMagic);
  }
}

TEST(NetFrame, OversizedLengthRejectedWithoutAllocating) {
  FdPair p;
  // Hand-build a header whose length field exceeds kMaxFramePayload.
  unsigned char header[net::kFrameHeaderBytes];
  net::encode_frame_header(3, "", header);
  const std::uint64_t huge = net::kMaxFramePayload + 1;
  for (int i = 0; i < 8; ++i)
    header[8 + i] = static_cast<unsigned char>((huge >> (8 * i)) & 0xff);
  ASSERT_EQ(net::send_all(p.a.get(), header, sizeof(header)).status,
            net::IoStatus::Ok);

  net::Frame frame;
  try {
    net::read_frame(p.b.get(), frame);
    FAIL() << "expected FrameError";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.kind(), net::FrameError::Kind::TooLarge);
  }
}

TEST(NetFrame, ConnectionResetMidMessageIsErrorNotSignal) {
  // Regression for the SIGPIPE/EINTR satellite: the peer disappears with
  // an abortive close (RST) while we are mid-conversation. Every further
  // write must surface as FrameError — the process must not die on
  // SIGPIPE (all sends use MSG_NOSIGNAL).
  net::Listener listener =
      net::listen_endpoint(net::Endpoint::parse("tcp:0"));
  net::OwnedFd client =
      net::connect_endpoint(listener.endpoint(), /*deadline_s=*/5.0);
  net::OwnedFd server = net::accept_retry(listener.fd());
  ASSERT_TRUE(server.valid());

  // Abortive close: RST instead of FIN.
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ASSERT_EQ(::setsockopt(server.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)),
            0);
  server.reset();

  // Large payloads force the kernel buffer past the reset; at least one
  // write_frame must fail (and none may raise SIGPIPE).
  const std::string payload(1 << 20, 'r');
  bool failed = false;
  for (int i = 0; i < 8 && !failed; ++i) {
    try {
      net::write_frame(client.get(), 1, payload);
    } catch (const net::FrameError& e) {
      EXPECT_TRUE(e.kind() == net::FrameError::Kind::Io ||
                  e.kind() == net::FrameError::Kind::TimedOut);
      failed = true;
    }
  }
  EXPECT_TRUE(failed);
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(NetWire, HelloJobByeRoundTrip) {
  net::HelloMsg hello;
  hello.node = 3;
  const net::HelloMsg hello2 = net::decode_hello(net::encode_hello(hello));
  EXPECT_EQ(hello2.node, 3u);
  EXPECT_EQ(hello2.protocol, net::kProtocolVersion);

  net::JobMsg job;
  job.algo = rl::AlgoKind::SAC;
  job.hidden = {32, 16};
  job.seed = 0xDEADBEEFCAFEull;
  job.node = 2;
  job.nodes = 4;
  job.cores = 8;
  job.per_worker = 128;
  job.obs_dim = 7;
  job.action_dim = 2;
  job.env_spec = "airdrop-v1\nsome multi-line\nopaque spec\n";
  const net::JobMsg job2 = net::decode_job(net::encode_job(job));
  EXPECT_EQ(job2.algo, rl::AlgoKind::SAC);
  EXPECT_EQ(job2.hidden, (std::vector<std::size_t>{32, 16}));
  EXPECT_EQ(job2.seed, job.seed);
  EXPECT_EQ(job2.node, 2u);
  EXPECT_EQ(job2.nodes, 4u);
  EXPECT_EQ(job2.cores, 8u);
  EXPECT_EQ(job2.per_worker, 128u);
  EXPECT_EQ(job2.obs_dim, 7u);
  EXPECT_EQ(job2.action_dim, 2u);
  EXPECT_EQ(job2.env_spec, job.env_spec);
  // A job for an algorithm this build does not know is refused: the same
  // job with the name after the algorithm's u64 length swapped.
  std::string unknown = net::encode_job(job);
  ASSERT_EQ(unknown.substr(8, 3), "SAC");
  unknown.replace(8, 3, "DQN");
  EXPECT_THROW(net::decode_job(unknown), net::WireError);

  net::ByeMsg bye;
  bye.node = 9;
  EXPECT_EQ(net::decode_bye(net::encode_bye(bye)).node, 9u);
}

TEST(NetWire, ProtocolMismatchRejected) {
  net::HelloMsg hello;
  hello.protocol = net::kProtocolVersion + 1;
  EXPECT_THROW(net::decode_hello(net::encode_hello(hello)), net::WireError);
}

TEST(NetWire, WeightsRoundTripBitwise) {
  // The checkpoint text must survive embedding verbatim (it contains
  // newlines and its own digest footer).
  rl::Checkpoint ck;
  ck.kind = rl::AlgoKind::PPO;
  ck.obs_dim = 3;
  ck.action_dim = 1;
  ck.params = Vec{0.1, -2.0 / 3.0, 1e-300, std::numeric_limits<double>::min()};
  std::ostringstream os;
  rl::save_checkpoint(os, ck);

  net::WeightsMsg w;
  w.version = 17;
  w.checkpoint = os.str();
  const net::WeightsMsg w2 = net::decode_weights(net::encode_weights(w));
  EXPECT_EQ(w2.version, 17u);
  ASSERT_EQ(w2.checkpoint, w.checkpoint);

  std::istringstream is(w2.checkpoint);
  const rl::Checkpoint ck2 = rl::load_checkpoint(is);
  ASSERT_EQ(ck2.params.size(), ck.params.size());
  for (std::size_t i = 0; i < ck.params.size(); ++i)
    EXPECT_EQ(ck2.params[i], ck.params[i]);  // bitwise, not approx
}

TEST(NetWire, BatchRoundTripBitwise) {
  net::BatchMsg b;
  b.worker = 5;
  b.version = 3;
  b.env_cost_units = 1234.5678901234567;
  b.inferences = 77;
  b.steps = 64;
  b.episodes.push_back({-1.0 / 3.0, 0.987654321987654, 321});
  b.episodes.push_back({2.5, -0.125, 7});
  for (int i = 0; i < 3; ++i) {
    rl::Transition t;
    t.obs = Vec{0.1 * i, -1.0 / (i + 1), 3.14159265358979};
    t.action = Vec{static_cast<double>(i % 2)};
    t.next_obs = Vec{0.2 * i, 1e-17, -2.718281828459045};
    t.reward = -0.001 * i + 1.0 / 7.0;
    t.log_prob = -1.0986122886681098;
    t.terminated = (i == 2);
    t.truncated = (i == 1);
    b.transitions.push_back(t);
  }

  const net::BatchMsg b2 = net::decode_batch_msg(net::encode_batch_msg(b));
  EXPECT_EQ(b2.worker, 5u);
  EXPECT_EQ(b2.version, 3u);
  EXPECT_EQ(b2.env_cost_units, b.env_cost_units);
  EXPECT_EQ(b2.inferences, 77u);
  EXPECT_EQ(b2.steps, 64u);
  ASSERT_EQ(b2.episodes.size(), 2u);
  EXPECT_EQ(b2.episodes[0].total_reward, b.episodes[0].total_reward);
  EXPECT_EQ(b2.episodes[0].score, b.episodes[0].score);
  EXPECT_EQ(b2.episodes[0].length, 321u);
  ASSERT_EQ(b2.transitions.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& x = b.transitions[i];
    const auto& y = b2.transitions[i];
    ASSERT_EQ(y.obs.size(), x.obs.size());
    for (std::size_t k = 0; k < x.obs.size(); ++k) EXPECT_EQ(y.obs[k], x.obs[k]);
    for (std::size_t k = 0; k < x.next_obs.size(); ++k)
      EXPECT_EQ(y.next_obs[k], x.next_obs[k]);
    EXPECT_EQ(y.action[0], x.action[0]);
    EXPECT_EQ(y.reward, x.reward);
    EXPECT_EQ(y.log_prob, x.log_prob);
    EXPECT_EQ(y.terminated, x.terminated);
    EXPECT_EQ(y.truncated, x.truncated);
  }
}

/// Builds a binary payload field by field in the wire's layout:
/// little-endian u64s and doubles as their IEEE-754 bits, spelled out
/// byte by byte here so the tests check the byte order independently of
/// the codec.
struct Payload {
  std::string bytes;

  Payload& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
    return *this;
  }
  Payload& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Payload& byte(unsigned char v) {
    bytes.push_back(static_cast<char>(v));
    return *this;
  }
  Payload& text(const std::string& s) {
    bytes += s;
    return *this;
  }
  /// worker, version, inferences, steps and env_cost_units, all zero.
  Payload& batch_header() { return u64(0).u64(0).u64(0).u64(0).f64(0.0); }
};

/// `decode(payload)` must throw a WireError whose message names `field`,
/// so a test fails if some other check fired first.
template <typename Decode>
void expect_wire_error(Decode decode, const std::string& payload,
                       const std::string& field) {
  try {
    decode(payload);
    ADD_FAILURE() << "decoded without error; expected one naming '" << field
                  << "'";
  } catch (const net::WireError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr std::uint64_t kTrillion = 1000000000000ull;

// Each payload below is a few dozen bytes and claims 10^12 elements
// somewhere. The decoder must turn the lie into a WireError before it
// sizes a buffer from the count: sizing first would ask for terabytes and
// fail as std::bad_alloc, and a smaller lie would be a large allocation.
// One test per decoded count, so a failure names the count that slipped.
TEST(NetWire, JobHiddenCountIsBoundedByThePayload) {
  const std::string p =
      Payload().u64(3).text("PPO").u64(kTrillion).u64(64).u64(64).bytes;
  EXPECT_LT(p.size(), 64u);
  expect_wire_error(net::decode_job, p, "hidden count");
}

TEST(NetWire, JobEnvLengthIsBoundedByThePayload) {
  // The algorithm, an empty hidden list, the seven fixed fields (seed,
  // node, nodes, cores, per_worker, obs_dim, action_dim), the lying env
  // length and one spec byte.
  const std::string p = Payload()
                            .u64(3)
                            .text("PPO")
                            .u64(0)
                            .u64(0)
                            .u64(0)
                            .u64(2)
                            .u64(1)
                            .u64(8)
                            .u64(4)
                            .u64(1)
                            .u64(kTrillion)
                            .text("x")
                            .bytes;
  EXPECT_EQ(p.size(), 84u);
  expect_wire_error(net::decode_job, p, "env length");
}

TEST(NetWire, WeightsLengthIsBoundedByThePayload) {
  const std::string p =
      Payload().u64(3).u64(kTrillion).text("darl-checkpoint-v2\n").bytes;
  EXPECT_LT(p.size(), 64u);
  expect_wire_error(net::decode_weights, p, "checkpoint length");
}

TEST(NetWire, BatchEpisodeCountIsBoundedByThePayload) {
  const std::string p =
      Payload().batch_header().u64(kTrillion).f64(1.0).bytes;
  EXPECT_LT(p.size(), 64u);
  expect_wire_error(net::decode_batch_msg, p, "episode count");
}

TEST(NetWire, BatchTransitionCountIsBoundedByThePayload) {
  const std::string p = Payload().batch_header().u64(0).u64(kTrillion).bytes;
  EXPECT_LT(p.size(), 64u);
  expect_wire_error(net::decode_batch_msg, p, "transition count");
}

TEST(NetWire, BatchVectorLengthIsBoundedByThePayload) {
  // One transition has to fit before its obs length is read: the count
  // bound wants its 42-byte minimum after the count, so this payload
  // carries reward, log_prob, both flags, the lying obs length and 16
  // bytes for the two other lengths.
  const std::string p = Payload()
                            .batch_header()
                            .u64(0)
                            .u64(1)
                            .f64(0.0)
                            .f64(0.0)
                            .byte(0)
                            .byte(0)
                            .u64(kTrillion)
                            .u64(0)
                            .u64(0)
                            .bytes;
  EXPECT_EQ(p.size(), 98u);  // 40 header + 2 counts + 42
  expect_wire_error(net::decode_batch_msg, p, "obs length");
}

// The bound is each element's shortest encoding, so the tightest honest
// messages (empty vectors, an empty checkpoint, a trailing string that
// ends the payload) still decode, and their encodings are exactly the
// minimum sizes the bounds assume.
TEST(NetWire, TightestHonestMessagesStillDecode) {
  net::BatchMsg b;
  b.episodes.resize(2);
  b.transitions.resize(3);
  const std::string bp = net::encode_batch_msg(b);
  // 40-byte header, two counts, 24 bytes per episode and 42 per
  // transition with empty vectors.
  EXPECT_EQ(bp.size(), 40u + 16u + 2u * 24u + 3u * 42u);
  const net::BatchMsg b2 = net::decode_batch_msg(bp);
  EXPECT_EQ(b2.episodes.size(), 2u);
  EXPECT_EQ(b2.transitions.size(), 3u);

  net::JobMsg job;
  job.hidden = {1, 2, 3};
  job.env_spec = "x";
  const net::JobMsg job2 = net::decode_job(net::encode_job(job));
  EXPECT_EQ(job2.hidden, job.hidden);
  EXPECT_EQ(job2.env_spec, "x");

  net::WeightsMsg w;
  w.version = 1;
  const std::string wp = net::encode_weights(w);
  EXPECT_EQ(wp.size(), 16u);
  const net::WeightsMsg w2 = net::decode_weights(wp);
  EXPECT_EQ(w2.version, 1u);
  EXPECT_TRUE(w2.checkpoint.empty());
}

/// An honest Batch with every field set.
net::BatchMsg honest_batch() {
  net::BatchMsg b;
  b.worker = 2;
  b.version = 9;
  b.env_cost_units = 12.5;
  b.inferences = 40;
  b.steps = 32;
  b.episodes.push_back({1.5, -0.25, 11});
  for (int i = 0; i < 2; ++i) {
    rl::Transition t;
    t.obs = Vec{0.5 * i, -1.0};
    t.action = Vec{1.0};
    t.next_obs = Vec{0.25, 2.0 * i};
    t.reward = 1.0 / 3.0;
    t.log_prob = -0.5;
    t.terminated = (i == 1);
    t.truncated = (i == 0);
    b.transitions.push_back(t);
  }
  return b;
}

net::JobMsg honest_job() {
  net::JobMsg job;
  job.algo = rl::AlgoKind::IMPALA;
  job.hidden = {16, 8};
  job.seed = 77;
  job.node = 1;
  job.nodes = 2;
  job.cores = 2;
  job.per_worker = 64;
  job.obs_dim = 4;
  job.action_dim = 1;
  job.env_spec = "spec";
  return job;
}

net::WeightsMsg honest_weights() {
  rl::Checkpoint ck;
  ck.kind = rl::AlgoKind::PPO;
  ck.obs_dim = 2;
  ck.action_dim = 1;
  ck.params = Vec{0.1, -0.2};
  std::ostringstream os;
  rl::save_checkpoint(os, ck);
  net::WeightsMsg w;
  w.version = 4;
  w.checkpoint = os.str();
  return w;
}

/// Every message's honest payload, with its decoder, by name.
struct Encoded {
  const char* name;
  std::string payload;
  std::function<void(const std::string&)> decode;
};

std::vector<Encoded> every_message() {
  net::HelloMsg hello;
  hello.node = 1;
  net::ByeMsg bye;
  bye.node = 1;
  return {{"Hello", net::encode_hello(hello),
           [](const std::string& p) { (void)net::decode_hello(p); }},
          {"Job", net::encode_job(honest_job()),
           [](const std::string& p) { (void)net::decode_job(p); }},
          {"Weights", net::encode_weights(honest_weights()),
           [](const std::string& p) { (void)net::decode_weights(p); }},
          {"Batch", net::encode_batch_msg(honest_batch()),
           [](const std::string& p) { (void)net::decode_batch_msg(p); }},
          {"Bye", net::encode_bye(bye),
           [](const std::string& p) { (void)net::decode_bye(p); }}};
}

// A binary payload has no terminator to catch a cut: each field's read is
// checked against the bytes left, so every strict prefix is a WireError,
// never a read past the end or a silently short message.
TEST(NetWire, EveryStrictPrefixOfABinaryPayloadIsRejected) {
  for (const Encoded& m : every_message()) {
    for (std::size_t n = 0; n < m.payload.size(); ++n) {
      EXPECT_THROW(m.decode(m.payload.substr(0, n)), net::WireError)
          << m.name << " prefix of " << n << " of " << m.payload.size()
          << " bytes";
    }
    EXPECT_NO_THROW(m.decode(m.payload)) << m.name;
  }
}

TEST(NetWire, TrailingByteIsRejected) {
  for (const Encoded& m : every_message()) {
    SCOPED_TRACE(m.name);
    expect_wire_error(m.decode, m.payload + '\0', "trailing bytes");
  }
}

TEST(NetWire, FlagByteOtherThanZeroOrOneIsRejected) {
  net::BatchMsg b;
  b.transitions.resize(1);
  const std::string p = net::encode_batch_msg(b);
  // The flags follow the header, both counts, reward and log_prob.
  const std::size_t terminated_at = 40 + 16 + 16;
  for (const std::size_t at : {terminated_at, terminated_at + 1}) {
    for (const unsigned char bad : {2, 0xFF}) {
      std::string q = p;
      q[at] = static_cast<char>(bad);
      expect_wire_error(net::decode_batch_msg, q, "flag byte");
    }
  }
}

// Doubles cross as their bits. An environment or policy that yields a
// non-finite value must see it arrive as sent: a decoder that refused
// "nan" or "inf" (as operator>> does) would fail such a run only when it
// runs distributed, and one that lost a NaN's sign or payload would make
// the two placements' results differ.
TEST(NetWire, BatchCarriesNonFiniteValuesBitwise) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double payload_nan = std::bit_cast<double>(0x7FF800000000BEEFull);
  const double signaling = std::bit_cast<double>(0xFFF0000000000001ull);
  const Vec odd{qnan,  -qnan, payload_nan, -payload_nan, signaling, inf,
                -inf,  -0.0,  tiny,        -tiny,        0x1p-1030};

  net::BatchMsg b;
  b.env_cost_units = -0.0;
  b.episodes.push_back({qnan, -inf, 3});
  rl::Transition t;
  t.obs = odd;
  t.action = Vec{-0.0, signaling};
  t.next_obs = Vec(odd.rbegin(), odd.rend());
  t.reward = payload_nan;
  t.log_prob = -inf;
  b.transitions.push_back(t);

  const net::BatchMsg b2 = net::decode_batch_msg(net::encode_batch_msg(b));
  auto same_bits = [](const Vec& x, const Vec& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(b2.env_cost_units), bits(b.env_cost_units));
  ASSERT_EQ(b2.episodes.size(), 1u);
  EXPECT_EQ(bits(b2.episodes[0].total_reward), bits(qnan));
  EXPECT_EQ(bits(b2.episodes[0].score), bits(-inf));
  ASSERT_EQ(b2.transitions.size(), 1u);
  const rl::Transition& t2 = b2.transitions[0];
  EXPECT_TRUE(same_bits(t2.obs, t.obs));
  EXPECT_TRUE(same_bits(t2.action, t.action));
  EXPECT_TRUE(same_bits(t2.next_obs, t.next_obs));
  EXPECT_EQ(bits(t2.reward), bits(t.reward));
  EXPECT_EQ(bits(t2.log_prob), bits(t.log_prob));
}

// A darl_worker of protocol 1 or 2 opens with exactly one of these text
// Hellos. It must be refused at the handshake with the typed mismatch,
// not get as far as a Job or Batch the peer cannot read.
TEST(NetWire, V1HelloIsRefused) {
  ASSERT_EQ(net::kProtocolVersion, 3u);
  expect_wire_error(net::decode_hello, "hello 1 1\n",
                    "protocol version mismatch");
  expect_wire_error(net::decode_hello, "hello 1 2\n",
                    "protocol version mismatch");
}

TEST(NetWire, EveryMessageTypeOverASocketpair) {
  FdPair p;
  net::MsgChannel tx(std::move(p.a));
  net::MsgChannel rx(std::move(p.b));

  net::HelloMsg hello;
  hello.node = 1;
  tx.send(net::MsgType::Hello, net::encode_hello(hello));
  net::JobMsg job;
  job.env_spec = "spec";
  tx.send(net::MsgType::Job, net::encode_job(job));
  net::WeightsMsg weights;
  weights.version = 2;
  weights.checkpoint = "not parsed here";
  tx.send(net::MsgType::Weights, net::encode_weights(weights));
  net::BatchMsg batch;
  batch.worker = 4;
  tx.send(net::MsgType::Batch, net::encode_batch_msg(batch));
  tx.send(net::MsgType::Stop, std::string());
  net::ByeMsg bye;
  bye.node = 1;
  tx.send(net::MsgType::Bye, net::encode_bye(bye));

  EXPECT_EQ(net::decode_hello(rx.expect(net::MsgType::Hello)).node, 1u);
  EXPECT_EQ(net::decode_job(rx.expect(net::MsgType::Job)).env_spec, "spec");
  EXPECT_EQ(net::decode_weights(rx.expect(net::MsgType::Weights)).version, 2u);
  EXPECT_EQ(net::decode_batch_msg(rx.expect(net::MsgType::Batch)).worker, 4u);
  rx.expect(net::MsgType::Stop);
  EXPECT_EQ(net::decode_bye(rx.expect(net::MsgType::Bye)).node, 1u);

  // expect() on a mismatched type is a WireError.
  tx.send(net::MsgType::Hello, net::encode_hello(hello));
  EXPECT_THROW(rx.expect(net::MsgType::Batch), net::WireError);
}

// ---------------------------------------------------------------------------
// The acceptance bar: loopback multi-process run == in-process run, bitwise.

/// PPO steers the canopy through the discrete actions, SAC through the
/// continuous ones.
frameworks::TrainRequest tiny_rllib_request(
    std::size_t nodes, rl::AlgoKind algo = rl::AlgoKind::PPO) {
  airdrop::AirdropConfig cfg;
  cfg.wind_enabled = false;
  cfg.gusts_enabled = false;
  cfg.altitude_min = 30.0;
  cfg.altitude_max = 300.0;
  if (algo == rl::AlgoKind::SAC) {
    cfg.action_mode = airdrop::ActionMode::Continuous;
  }

  frameworks::TrainRequest req;
  req.env_factory = airdrop::make_airdrop_factory(cfg);
  req.env_spec = airdrop::encode_airdrop_spec(cfg);
  req.algo.kind = algo;
  req.deployment.nodes = nodes;
  req.deployment.cores_per_node = 2;
  req.total_timesteps = 1536;
  req.train_batch_total = 512;
  req.eval_episodes = 10;
  req.seed = 1234;
  return req;
}

/// Runs `algo`'s tiny RLlib job in process and over a loopback socket,
/// and expects the two results bit for bit.
void expect_loopback_matches_in_process(rl::AlgoKind algo) {
  SCOPED_TRACE(rl::algo_name(algo));
  const frameworks::TrainRequest req = tiny_rllib_request(/*nodes=*/3, algo);

  frameworks::RllibBackend in_process;
  const frameworks::TrainResult want = in_process.run(req);

  // Actors on threads (spawn_actors = false): same runtime code as the
  // separate-process path — run_actor is exactly darl_worker's actor
  // role — without forking from a gtest process.
  const std::string sock = unique_sock_path("dist");
  frameworks::DistributedOptions opts;
  opts.enabled = true;
  opts.endpoint = "unix:" + sock;
  opts.spawn_actors = false;
  opts.connect_timeout_s = 30.0;

  std::vector<std::thread> actors;
  for (std::size_t node = 1; node < req.deployment.nodes; ++node) {
    actors.emplace_back([&, node] {
      frameworks::run_actor(opts.endpoint, node,
                            airdrop::airdrop_factory_from_spec);
    });
  }
  frameworks::DistributedRllibBackend distributed(opts);
  const frameworks::TrainResult got = distributed.run(req);
  for (auto& t : actors) t.join();

  // The paper metrics and everything feeding campaign CSVs must be
  // bit-identical (EXPECT_EQ on doubles is deliberate).
  EXPECT_EQ(got.reward, want.reward);
  EXPECT_EQ(got.reward_stddev, want.reward_stddev);
  EXPECT_EQ(got.sim_seconds, want.sim_seconds);
  EXPECT_EQ(got.sim_energy_joules, want.sim_energy_joules);
  EXPECT_EQ(got.train_reward, want.train_reward);
  EXPECT_EQ(got.net_staleness, want.net_staleness);
  EXPECT_EQ(got.timesteps, want.timesteps);
  EXPECT_EQ(got.episodes, want.episodes);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.final_policy_loss, want.final_policy_loss);
  EXPECT_EQ(got.final_value_loss, want.final_value_loss);
  EXPECT_EQ(got.final_entropy, want.final_entropy);
  ASSERT_EQ(got.final_policy.size(), want.final_policy.size());
  for (std::size_t i = 0; i < want.final_policy.size(); ++i)
    EXPECT_EQ(got.final_policy[i], want.final_policy[i]);

  // The asynchronous pipeline is actually exercised: staleness > 0.
  EXPECT_GT(got.net_staleness, 0.0);
}

// A remote SAC actor samples the squashed head and rebuilds its network
// from the Job's hidden sizes, so it runs as a second input beside PPO.
TEST(NetDistributed, LoopbackRunMatchesInProcessBitwise) {
  expect_loopback_matches_in_process(rl::AlgoKind::PPO);
  expect_loopback_matches_in_process(rl::AlgoKind::SAC);
}

/// Open fds, threads and child processes of this process: a failed run
/// must leave each as it found it.
struct Footprint {
  Footprint() {
    // ThreadSanitizer starts a helper thread with the process's first
    // thread; let it exist before counting.
    std::thread([] {}).join();
    fds = entries("/proc/self/fd");
    threads = entries("/proc/self/task");
  }

  std::size_t fds = 0;
  std::size_t threads = 0;

  static std::size_t entries(const char* dir) {
    const std::filesystem::directory_iterator it(dir);
    return static_cast<std::size_t>(
        std::distance(std::filesystem::begin(it), std::filesystem::end(it)));
  }
  void expect_unchanged() const {
    EXPECT_EQ(entries("/proc/self/fd"), fds);
    // A joined thread can stay listed for a moment after join() returns
    // (the kernel wakes the joiner just before it reaps the thread).
    std::size_t now = entries("/proc/self/task");
    for (int i = 0; i < 200 && now != threads; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      now = entries("/proc/self/task");
    }
    EXPECT_EQ(now, threads);
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);  // ECHILD: no children
  }
};

TEST(NetDistributed, MissingActorSurfacesAsTimeoutNotHang) {
  frameworks::TrainRequest req = tiny_rllib_request(/*nodes=*/2);
  frameworks::DistributedOptions opts;
  opts.enabled = true;
  opts.endpoint = "unix:" + unique_sock_path("noactor");
  opts.spawn_actors = false;       // and nobody else connects
  opts.connect_timeout_s = 0.3;
  const Footprint before;
  frameworks::DistributedRllibBackend backend(opts);
  EXPECT_THROW(backend.run(req), net::NetError);
  before.expect_unchanged();
}

/// How fake_actor plays actor node 1 of a 2x2 run.
enum class ActorPlay {
  Batches,          // one Batch per id in `workers`, tagged with the shipped version
  WrongVersion,     // the same Batches, tagged with a version never shipped
  CloseAfterHello,  // Hello, then close the connection
  Stall,            // take Job and the first Weights, then send nothing
  Drip,             // the first worker's Batch frame, one byte per 250 ms
};

/// Sends `msg`'s 80-byte Batch frame one byte at a time, 250 ms apart (20 s
/// in all), and stops early once the learner hangs up.
void drip_batch(int fd, const net::BatchMsg& msg) {
  const std::string payload = net::encode_batch_msg(msg);
  unsigned char header[net::kFrameHeaderBytes];
  net::encode_frame_header(static_cast<std::uint32_t>(net::MsgType::Batch),
                           payload, header);
  std::string frame(reinterpret_cast<const char*>(header), sizeof(header));
  frame += payload;
  EXPECT_EQ(frame.size(), 80u);
  for (const char c : frame) {
    if (net::send_all(fd, &c, 1).status != net::IoStatus::Ok) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
}

/// Plays actor node 1 of a 2x2 run by hand over raw net helpers: Hello,
/// then (unless it closes right away) Job and the first Weights and what
/// `play` sends after them; then it holds the connection until the
/// learner drops it.
void fake_actor(const std::string& endpoint, ActorPlay play,
                const std::vector<std::uint64_t>& workers) {
  try {
    net::MsgChannel ch(
        net::connect_endpoint(net::Endpoint::parse(endpoint), 10.0), 10.0);
    net::HelloMsg hello;
    hello.node = 1;
    ch.send(net::MsgType::Hello, net::encode_hello(hello));
    if (play == ActorPlay::CloseAfterHello) return;
    (void)net::decode_job(ch.expect(net::MsgType::Job));
    const net::WeightsMsg weights =
        net::decode_weights(ch.expect(net::MsgType::Weights));
    if (play == ActorPlay::Drip) {
      net::BatchMsg msg;
      msg.worker = workers.at(0);
      msg.version = weights.version;
      drip_batch(ch.fd(), msg);
      return;
    }
    if (play != ActorPlay::Stall) {
      for (const std::uint64_t worker : workers) {
        net::BatchMsg msg;
        msg.worker = worker;
        msg.version = play == ActorPlay::WrongVersion ? weights.version + 1000
                                                      : weights.version;
        ch.send(net::MsgType::Batch, net::encode_batch_msg(msg));
      }
    }
    net::MsgType type;
    std::string payload;
    while (ch.recv(type, payload)) {
    }
  } catch (const net::NetError&) {
    // The learner hanging up (EOF above, or an error here) is the end
    // this actor waits for.
  }
}

/// Runs a 2x2 job against fake_actor and expects the learner to give up
/// with a NetError (mentioning `why`, unless it is empty) within
/// io_timeout_s + 2 s, leaving no fd, thread or child behind.
void expect_actor_fails_run(const char* tag, ActorPlay play,
                            const std::vector<std::uint64_t>& workers,
                            const std::string& why, double io_timeout_s) {
  const frameworks::TrainRequest req = tiny_rllib_request(/*nodes=*/2);
  frameworks::DistributedOptions opts;
  opts.enabled = true;
  opts.endpoint = "unix:" + unique_sock_path(tag);
  opts.spawn_actors = false;
  opts.connect_timeout_s = 10.0;
  opts.io_timeout_s = io_timeout_s;
  const Footprint before;
  std::thread actor(fake_actor, opts.endpoint, play, workers);
  frameworks::DistributedRllibBackend backend(opts);
  const Stopwatch clock;
  try {
    backend.run(req);
    ADD_FAILURE() << "learner finished a run against a failing actor";
  } catch (const net::NetError& e) {
    EXPECT_LT(clock.seconds(), io_timeout_s + 2.0) << e.what();
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected a NetError, got: " << e.what();
  }
  actor.join();
  before.expect_unchanged();
}

/// The first iteration's batches from workers `workers` are refused.
void expect_batches_rejected(const char* tag,
                             const std::vector<std::uint64_t>& workers,
                             const std::string& why) {
  expect_actor_fails_run(tag, ActorPlay::Batches, workers, why, 10.0);
}

// Node 1 of a 2x2 deployment owns workers 2 and 3.
TEST(NetDistributed, OutOfRangeWorkerIdIsRejected) {
  expect_batches_rejected("wid_range", {std::uint64_t{1} << 40, 3},
                          "outside its workers 2..3");
}

TEST(NetDistributed, AnotherNodesWorkerIdIsRejected) {
  expect_batches_rejected("wid_node", {0, 1}, "outside its workers 2..3");
}

TEST(NetDistributed, RepeatedWorkerIdIsRejected) {
  expect_batches_rejected("wid_twice", {2, 2}, "twice in one iteration");
}

// Process failures: each surfaces as a NetError within the I/O timeout
// plus 2 s.

TEST(NetDistributed, ActorClosingAfterHelloFailsTheRun) {
  // The learner meets the closed socket either sending Job or Weights or
  // waiting for the first batch, so no one message is expected.
  expect_actor_fails_run("close_hello", ActorPlay::CloseAfterHello, {}, "", 1.0);
}

TEST(NetDistributed, ActorStallingPastIoTimeoutFailsTheRun) {
  expect_actor_fails_run("stall", ActorPlay::Stall, {}, "frame read timed out",
                         1.0);
}

TEST(NetDistributed, ActorDrippingABatchPastIoTimeoutFailsTheRun) {
  // No single recv waits long, but io_timeout_s bounds the read of the
  // whole frame, so the learner gives up long before the 20 s drip ends.
  expect_actor_fails_run("drip", ActorPlay::Drip, {2}, "timed out", 1.0);
}

/// This process's children: every thread's, read from /proc.
std::vector<pid_t> child_pids() {
  std::vector<pid_t> pids;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream in(task.path() / "children");
    for (pid_t pid = 0; in >> pid;) pids.push_back(pid);
  }
  return pids;
}

// A real actor process, spawned as darl_study spawns it, SIGKILLed once
// the learner has shipped the first Weights: the learner must see the
// link die and fail the run, and ChildReaper must reap the dead child.
TEST(NetDistributed, ActorProcessKilledMidIterationFailsTheRun) {
  frameworks::TrainRequest req = tiny_rllib_request(/*nodes=*/2);
  // Far more iterations than the run gets through before the kill.
  req.total_timesteps = 200 * req.train_batch_total;
  frameworks::DistributedOptions opts;
  opts.enabled = true;
  opts.endpoint = "unix:" + unique_sock_path("sigkill");
  opts.worker_bin = DARL_WORKER_BIN;  // spawn_actors: one child, node 1
  opts.connect_timeout_s = 30.0;
  opts.io_timeout_s = 1.0;
  const Footprint before;

  obs::set_metrics_enabled(true);
  const obs::Counter& published =
      obs::Registry::global().counter("net.weights_published");
  const std::uint64_t published_before = published.value();
  const Stopwatch clock;
  std::atomic<bool> run_over{false};
  double killed_at = -1.0;
  std::thread killer([&] {
    while (!run_over.load() && published.value() == published_before) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (run_over.load()) return;
    const std::vector<pid_t> children = child_pids();
    ASSERT_EQ(children.size(), 1u);
    killed_at = clock.seconds();
    ASSERT_EQ(::kill(children[0], SIGKILL), 0);
  });

  double failed_at = -1.0;
  frameworks::DistributedRllibBackend backend(opts);
  try {
    backend.run(req);
    ADD_FAILURE() << "learner finished a run whose actor was killed";
  } catch (const net::NetError&) {
    failed_at = clock.seconds();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected a NetError, got: " << e.what();
  }
  run_over.store(true);
  killer.join();
  obs::set_metrics_enabled(false);

  ASSERT_GE(killed_at, 0.0) << "the run ended before the actor was killed";
  EXPECT_GT(failed_at, killed_at) << "the run failed before the kill";
  EXPECT_LT(failed_at - killed_at, opts.io_timeout_s + 2.0);
  before.expect_unchanged();
}

TEST(NetDistributed, BatchWithUnshippedVersionIsRejected) {
  expect_actor_fails_run("bad_version", ActorPlay::WrongVersion, {2, 3},
                         "carries version", 1.0);
}

TEST(NetDistributed, SingleNodeJobsAreRejected) {
  frameworks::TrainRequest req = tiny_rllib_request(/*nodes=*/1);
  frameworks::DistributedOptions opts;
  opts.enabled = true;
  frameworks::DistributedRllibBackend backend(opts);
  EXPECT_THROW(backend.run(req), Error);
}

TEST(NetDistributed, EmptyEnvSpecIsRejected) {
  frameworks::TrainRequest req = tiny_rllib_request(/*nodes=*/2);
  req.env_spec.clear();
  frameworks::DistributedOptions opts;
  opts.enabled = true;
  frameworks::DistributedRllibBackend backend(opts);
  EXPECT_THROW(backend.run(req), Error);
}

// ---------------------------------------------------------------------------
// Airdrop env-spec codec (the resolver the worker binary registers).

TEST(AirdropSpec, RoundTripsConfig) {
  airdrop::AirdropConfig cfg;
  cfg.wind_enabled = true;
  cfg.gusts_enabled = false;
  cfg.altitude_min = 42.5;
  cfg.altitude_max = 123.75;
  cfg.rk_order = ode::RkOrder::Order8;
  cfg.action_mode = airdrop::ActionMode::Continuous;

  const std::string spec = airdrop::encode_airdrop_spec(cfg);
  EXPECT_TRUE(airdrop::is_airdrop_spec(spec));
  EXPECT_FALSE(airdrop::is_airdrop_spec("something-else"));

  const airdrop::AirdropConfig back = airdrop::decode_airdrop_spec(spec);
  EXPECT_EQ(back.wind_enabled, cfg.wind_enabled);
  EXPECT_EQ(back.gusts_enabled, cfg.gusts_enabled);
  EXPECT_EQ(back.altitude_min, cfg.altitude_min);
  EXPECT_EQ(back.altitude_max, cfg.altitude_max);
  EXPECT_EQ(back.rk_order, cfg.rk_order);
  EXPECT_EQ(back.action_mode, cfg.action_mode);

  EXPECT_THROW(airdrop::decode_airdrop_spec("garbage"), InvalidArgument);

  // The factory builds an identically-behaving environment.
  env::EnvFactory factory = airdrop::airdrop_factory_from_spec(spec);
  auto a = factory();
  auto b = airdrop::make_airdrop_factory(cfg)();
  a->seed(99);
  b->seed(99);
  const Vec oa = a->reset();
  const Vec ob = b->reset();
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) EXPECT_EQ(oa[i], ob[i]);
}

}  // namespace
