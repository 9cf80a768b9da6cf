// tests/test_fuzz.cpp — a seeded mutation fuzzer for the decoders of bytes
// that come from outside the process: the wire's decode_* (Batch, Weights,
// Hello, Job, Bye), read_frame over a real socketpair, and load_checkpoint
// (formats v1 and v2).
//
// Each target starts from honest payloads (the round-trip tests' kind)
// and runs two passes, both fixed by their seeds, so a failure replays
// exactly:
//   - a sweep that sets every length and count field of each payload to
//     2^32, 2^40, 2^63 and UINT64_MAX (binary fields in place, decimal
//     ones as text);
//   - a fixed budget of random mutations drawn from darl::Rng: bit flips,
//     byte overwrites, truncations, splices of two payloads, duplicated
//     chunks and count bombs at random places, one to four per input.
// The contract: every input decodes to a value or throws the decoder's
// typed error (WireError, FrameError, CheckpointError). Any other
// exception (std::bad_alloc, std::length_error, ...) fails the test; a
// crash, an out-of-bounds read or UB fails it in the sanitizer trees,
// which run this file like every other ctest.
//
// This binary caps every allocation at 64 MiB by replacing the global
// operator new: a decoder that sized a buffer from a claimed count rather
// than from the bytes it holds fails with std::bad_alloc, reported as a
// broken contract, before it commits gigabytes of the host's memory.
// Honest decodes of these inputs need a few KiB, a frame read at most its
// 1 MiB chunk.

#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "darl/common/rng.hpp"
#include "darl/net/frame.hpp"
#include "darl/net/socket.hpp"
#include "darl/net/wire.hpp"
#include "darl/rl/checkpoint.hpp"

namespace {
constexpr std::size_t kMaxAllocation = std::size_t{64} << 20;
}  // namespace

void* operator new(std::size_t n) {
  if (n <= kMaxAllocation) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace darl;

constexpr std::uint64_t kBombs[] = {
    1ull << 32, 1ull << 40, 1ull << 63,
    std::numeric_limits<std::uint64_t>::max()};

/// Random mutations per target, on top of the count sweep.
constexpr std::size_t kIterations = 6000;

/// An honest payload plus the offsets of its binary u64 count fields.
struct Seed {
  std::string bytes;
  std::vector<std::size_t> count_at;
};

void set_u64(std::string& s, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    s[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Start and length of every run of decimal digits in `s`.
std::vector<std::pair<std::size_t, std::size_t>> digit_runs(const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t i = 0; i < s.size();) {
    if (s[i] < '0' || s[i] > '9') {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < s.size() && s[j] >= '0' && s[j] <= '9') ++j;
    runs.emplace_back(i, j - i);
    i = j;
  }
  return runs;
}

/// Every input of the count sweep: each binary count field of each seed
/// set to each bomb in place, and each decimal number replaced by each
/// bomb's digits.
std::vector<std::string> count_sweep(const std::vector<Seed>& seeds) {
  std::vector<std::string> out;
  for (const Seed& seed : seeds) {
    for (const std::size_t at : seed.count_at) {
      for (const std::uint64_t bomb : kBombs) {
        std::string s = seed.bytes;
        set_u64(s, at, bomb);
        out.push_back(std::move(s));
      }
    }
    for (const auto& [at, len] : digit_runs(seed.bytes)) {
      for (const std::uint64_t bomb : kBombs) {
        std::string s = seed.bytes;
        s.replace(at, len, std::to_string(bomb));
        out.push_back(std::move(s));
      }
    }
  }
  return out;
}

/// Draws mutated inputs from a corpus of honest payloads.
class Mutator {
 public:
  Mutator(std::uint64_t seed, const std::vector<Seed>& corpus)
      : rng_(seed), corpus_(corpus) {}

  std::string next() {
    std::string s = pick().bytes;
    const std::size_t ops = 1 + rng_.index(4);
    for (std::size_t k = 0; k < ops; ++k) mutate(s);
    return s;
  }

 private:
  const Seed& pick() { return corpus_[rng_.index(corpus_.size())]; }

  void mutate(std::string& s) {
    static const unsigned char kInteresting[] = {
        0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF, '\n', ' ', '-', '+',
        '.',  '0',  '9',  'e',  'E',  'n',  'i',  'x', 0xF0, 0x7F};
    switch (rng_.index(6)) {
      case 0:  // flip one bit
        if (!s.empty()) {
          s[rng_.index(s.size())] ^= static_cast<char>(1u << rng_.index(8));
        }
        break;
      case 1:  // overwrite one byte, with an interesting or a random value
        if (!s.empty()) {
          const unsigned char b =
              rng_.bernoulli(0.5)
                  ? kInteresting[rng_.index(sizeof(kInteresting))]
                  : static_cast<unsigned char>(rng_.index(256));
          s[rng_.index(s.size())] = static_cast<char>(b);
        }
        break;
      case 2:  // truncate
        s.resize(rng_.index(s.size() + 1));
        break;
      case 3: {  // splice: a prefix of this input, a suffix of another
        const std::string& other = pick().bytes;
        const std::size_t a = rng_.index(s.size() + 1);
        const std::size_t b = rng_.index(other.size() + 1);
        s = s.substr(0, a) + other.substr(b);
        break;
      }
      case 4:  // duplicate a chunk somewhere else
        if (!s.empty()) {
          const std::size_t from = rng_.index(s.size());
          const std::size_t len = 1 + rng_.index(std::min<std::size_t>(
                                          s.size() - from, 64));
          const std::string chunk = s.substr(from, len);
          s.insert(rng_.index(s.size() + 1), chunk);
        }
        break;
      default:  // a count bomb, binary at a random offset or as digits
        bomb(s);
        break;
    }
  }

  void bomb(std::string& s) {
    const std::uint64_t v = kBombs[rng_.index(std::size(kBombs))];
    const auto runs = digit_runs(s);
    if (!runs.empty() && rng_.bernoulli(0.5)) {
      const auto& [at, len] = runs[rng_.index(runs.size())];
      s.replace(at, len, std::to_string(v));
    } else if (s.size() >= 8) {
      set_u64(s, rng_.index(s.size() - 7), v);
    }
  }

  Rng rng_;
  const std::vector<Seed>& corpus_;
};

/// Runs `decode` over the honest seeds (each must decode), the count
/// sweep and kIterations random mutations. Every input must give a value
/// or an `Error`; anything else is recorded as a failure with the input's
/// size and the exception.
template <typename Error>
void fuzz(const char* target, std::uint64_t seed, const std::vector<Seed>& corpus,
          const std::function<void(const std::string&)>& decode) {
  std::size_t accepted = 0, rejected = 0, failures = 0;
  auto run = [&](const std::string& input, const char* phase) {
    try {
      decode(input);
      ++accepted;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      if (++failures <= 5) {
        ADD_FAILURE() << target << " (" << phase << ", " << input.size()
                      << "-byte input) threw " << typeid(e).name() << ": "
                      << e.what();
      }
    }
  };
  for (const Seed& s : corpus) {
    try {
      decode(s.bytes);
    } catch (const std::exception& e) {
      ADD_FAILURE() << target << ": an honest seed did not decode: " << e.what();
    }
  }
  for (const std::string& input : count_sweep(corpus)) run(input, "count sweep");
  Mutator mutator(seed, corpus);
  for (std::size_t i = 0; i < kIterations; ++i) run(mutator.next(), "mutation");
  EXPECT_EQ(failures, 0u) << target;
  // Both outcomes occur, or the mutations never reached past the first
  // check (or never failed it).
  EXPECT_GT(rejected, 0u) << target;
  EXPECT_GT(accepted, 0u) << target;
}

// ---------------------------------------------------------------------------
// Honest payloads

net::BatchMsg sample_batch(std::size_t transitions, std::size_t obs_dim) {
  net::BatchMsg b;
  b.worker = 3;
  b.version = 7;
  b.env_cost_units = 41.25;
  b.inferences = transitions;
  b.steps = transitions;
  b.episodes.push_back({12.5, 0.75, 40});
  b.episodes.push_back({-3.0, std::numeric_limits<double>::quiet_NaN(), 2});
  for (std::size_t i = 0; i < transitions; ++i) {
    rl::Transition t;
    t.obs.assign(obs_dim, 0.125 * static_cast<double>(i));
    t.action = Vec{static_cast<double>(i % 2)};
    t.next_obs.assign(obs_dim, -0.5 * static_cast<double>(i));
    t.reward = 1.0 / static_cast<double>(i + 1);
    t.log_prob = -0.69314718055994529;
    t.terminated = (i + 1 == transitions);
    t.truncated = (i == 1);
    b.transitions.push_back(t);
  }
  return b;
}

/// The offsets of a Batch payload's counts and vector lengths.
std::vector<std::size_t> batch_count_offsets(const net::BatchMsg& b) {
  std::vector<std::size_t> at;
  std::size_t pos = 40;  // worker, version, inferences, steps, cost
  at.push_back(pos);     // episode count
  pos += 8 + 24 * b.episodes.size();
  at.push_back(pos);     // transition count
  pos += 8;
  for (const rl::Transition& t : b.transitions) {
    pos += 18;  // reward, log_prob, two flags
    for (const Vec* v : {&t.obs, &t.action, &t.next_obs}) {
      at.push_back(pos);
      pos += 8 + 8 * v->size();
    }
  }
  return at;
}

Seed batch_seed(const net::BatchMsg& b) {
  return {net::encode_batch_msg(b), batch_count_offsets(b)};
}

rl::Checkpoint sample_checkpoint(std::size_t n) {
  rl::Checkpoint ck;
  ck.kind = rl::AlgoKind::SAC;
  ck.obs_dim = 3;
  ck.action_dim = 2;
  for (std::size_t i = 0; i < n; ++i) {
    ck.params.push_back((static_cast<double>(i) - 2.5) / 7.0);
  }
  ck.params.push_back(-0.0);
  ck.params.push_back(std::numeric_limits<double>::denorm_min());
  ck.params.push_back(std::numeric_limits<double>::max());
  return ck;
}

std::string checkpoint_text(const rl::Checkpoint& ck) {
  std::ostringstream os;
  rl::save_checkpoint(os, ck);
  return os.str();
}

Seed weights_seed(std::uint64_t version, const std::string& checkpoint) {
  net::WeightsMsg w;
  w.version = version;
  w.checkpoint = checkpoint;
  return {net::encode_weights(w), {8}};
}

// ---------------------------------------------------------------------------
// Targets

TEST(Fuzz, DecodeBatchMsg) {
  net::BatchMsg odd;
  rl::Transition t;
  t.obs = Vec{std::numeric_limits<double>::infinity(), -0.0};
  t.reward = std::numeric_limits<double>::quiet_NaN();
  odd.transitions.push_back(t);
  const std::vector<Seed> corpus = {batch_seed(sample_batch(4, 3)),
                                    batch_seed(net::BatchMsg{}),
                                    batch_seed(odd)};
  fuzz<net::WireError>("decode_batch_msg", 101, corpus, [](const std::string& p) {
    (void)net::decode_batch_msg(p);
  });
}

TEST(Fuzz, DecodeWeights) {
  const std::vector<Seed> corpus = {
      weights_seed(5, checkpoint_text(sample_checkpoint(6))),
      weights_seed(0, std::string())};
  fuzz<net::WireError>("decode_weights", 102, corpus, [](const std::string& p) {
    (void)net::decode_weights(p);
  });
}

TEST(Fuzz, DecodeHello) {
  net::HelloMsg hello;
  hello.node = 3;
  const std::vector<Seed> corpus = {{net::encode_hello(hello), {}}};
  fuzz<net::WireError>("decode_hello", 103, corpus, [](const std::string& p) {
    (void)net::decode_hello(p);
  });
}

/// The offsets of a Job payload's algorithm-name length, hidden count and
/// env length.
Seed job_seed(const net::JobMsg& job) {
  const std::size_t hidden_at =
      8 + std::char_traits<char>::length(rl::algo_name(job.algo));
  // The hidden sizes, then seed, node, nodes, cores, per_worker, obs_dim
  // and action_dim.
  const std::size_t env_at = hidden_at + 8 + 8 * job.hidden.size() + 7 * 8;
  return {net::encode_job(job), {0, hidden_at, env_at}};
}

TEST(Fuzz, DecodeJob) {
  net::JobMsg job;
  job.algo = rl::AlgoKind::IMPALA;
  job.hidden = {32, 16};
  job.seed = 0xDEADBEEFull;
  job.node = 1;
  job.nodes = 3;
  job.cores = 2;
  job.per_worker = 64;
  job.obs_dim = 7;
  job.action_dim = 2;
  job.env_spec = "airdrop-v1\nrk 5\nwind 0.25\n";
  net::JobMsg bare;
  bare.env_spec = "x";
  const std::vector<Seed> corpus = {job_seed(job), job_seed(bare)};
  fuzz<net::WireError>("decode_job", 104, corpus, [](const std::string& p) {
    (void)net::decode_job(p);
  });
}

TEST(Fuzz, DecodeBye) {
  net::ByeMsg bye;
  bye.node = 12;
  const std::vector<Seed> corpus = {{net::encode_bye(bye), {}}};
  fuzz<net::WireError>("decode_bye", 105, corpus, [](const std::string& p) {
    (void)net::decode_bye(p);
  });
}

/// A stream of whole frames: header and payload per message.
Seed frame_stream(const std::vector<std::pair<net::MsgType, std::string>>& msgs) {
  Seed seed;
  for (const auto& [type, payload] : msgs) {
    unsigned char header[net::kFrameHeaderBytes];
    net::encode_frame_header(static_cast<std::uint32_t>(type), payload, header);
    seed.count_at.push_back(seed.bytes.size() + 8);  // the length field
    seed.bytes.append(reinterpret_cast<const char*>(header), sizeof(header));
    seed.bytes += payload;
  }
  return seed;
}

TEST(Fuzz, ReadFrame) {
  net::HelloMsg hello;
  hello.node = 1;
  const std::vector<Seed> corpus = {
      frame_stream({{net::MsgType::Hello, net::encode_hello(hello)},
                    {net::MsgType::Batch, net::encode_batch_msg(sample_batch(2, 2))},
                    {net::MsgType::Stop, std::string()}}),
      frame_stream({{net::MsgType::Weights,
                     weights_seed(1, checkpoint_text(sample_checkpoint(2))).bytes}})};
  // Each input is written whole into one end of a socketpair, whose
  // write side then closes; frames are read off the other end until a
  // clean EOF or an error.
  fuzz<net::FrameError>("read_frame", 106, corpus, [](const std::string& bytes) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    net::OwnedFd tx(fds[0]), rx(fds[1]);
    ASSERT_EQ(net::send_all(tx.get(), bytes).status, net::IoStatus::Ok);
    ::shutdown(tx.get(), SHUT_WR);
    net::Frame frame;
    while (net::read_frame(rx.get(), frame)) {
    }
  });
}

TEST(Fuzz, LoadCheckpointV2) {
  const std::vector<Seed> corpus = {{checkpoint_text(sample_checkpoint(8)), {}},
                                    {checkpoint_text(sample_checkpoint(0)), {}}};
  fuzz<rl::CheckpointError>("load_checkpoint v2", 107, corpus,
                            [](const std::string& text) {
                              std::istringstream in(text);
                              (void)rl::load_checkpoint(in);
                            });
}

TEST(Fuzz, LoadCheckpointV1) {
  const std::vector<Seed> corpus = {
      {"darl-checkpoint-v1\nIMPALA 2 1 4\n0.5\n-1.5\n2\n-0.125\n", {}},
      {"darl-checkpoint-v1\nPPO 4 1 3 0.25 -0 4.9406564584124654e-324", {}}};
  fuzz<rl::CheckpointError>("load_checkpoint v1", 108, corpus,
                            [](const std::string& text) {
                              std::istringstream in(text);
                              (void)rl::load_checkpoint(in);
                            });
}

}  // namespace
