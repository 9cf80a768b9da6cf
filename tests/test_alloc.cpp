// Allocation counts on the learner's per-sample paths, and the largest
// allocation a frame read makes.
//
// This binary replaces the global operator new with a counting one, so
// a test can read how many heap allocations a call makes and the largest
// one it asked for. A path that keeps its buffers as members allocates
// while it warms up and never after.

#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "darl/common/rng.hpp"
#include "darl/net/frame.hpp"
#include "darl/rl/actor_critic.hpp"

namespace {
std::atomic<long> g_allocations{0};
std::atomic<std::size_t> g_largest{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen &&
         !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace darl::rl {
namespace {

// ActorCritic's per-sample step on its own: the learners call it once
// per sample per PPO epoch and once per IMPALA sample.
class PolicyGradProbe final : public ActorCritic {
 public:
  PolicyGradProbe(env::ActionSpace space, std::uint64_t seed)
      : ActorCritic(AlgoKind::PPO, 4, std::move(space), {16, 16}, 3e-4, -0.5,
                    seed) {}
  TrainStats train(const std::vector<WorkerBatch>&) override { return {}; }
  using ActorCritic::policy_grad;
  std::size_t head_dim() const { return actor_.output_dim(); }
};

// Allocations per policy_grad call once the member buffers have grown.
double allocations_per_call(PolicyGradProbe& probe, const Vec& action) {
  Rng rng(5);
  std::vector<double> head(probe.head_dim()), d_head(probe.head_dim());
  const auto call = [&] {
    for (double& h : head) h = rng.uniform(-3.0, 3.0);
    probe.policy_grad(head.data(), action, 0.7, 0.01, 0.125, d_head.data());
  };
  call();  // warm-up
  const long before = g_allocations.load();
  constexpr int kCalls = 64;
  for (int i = 0; i < kCalls; ++i) call();
  return static_cast<double>(g_allocations.load() - before) / kCalls;
}

TEST(AllocationFree, PolicyGradAfterWarmUp) {
  const env::ActionSpace discrete(env::DiscreteSpace(5));
  PolicyGradProbe categorical(discrete, 1);
  EXPECT_EQ(allocations_per_call(categorical, discrete.discrete().encode(3)),
            0.0);

  PolicyGradProbe gaussian(env::ActionSpace(env::BoxSpace(2, -1.0, 1.0)), 2);
  EXPECT_EQ(allocations_per_call(gaussian, Vec{0.25, -0.5}), 0.0);
}

}  // namespace
}  // namespace darl::rl

namespace darl::net {
namespace {

// A frame header is outside input. One that claims 200 MiB, under the
// 256 MiB cap, and then sends 10 bytes must cost about what arrived,
// not what it claimed.
TEST(AllocationBound, FrameReadGrowsWithTheBytesThatArrive) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd tx(fds[0]), rx(fds[1]);
  const std::string payload(10, 'x');
  unsigned char header[kFrameHeaderBytes];
  encode_frame_header(1, payload, header);
  const std::uint64_t claimed = 200ull << 20;
  for (int i = 0; i < 8; ++i) {
    header[8 + i] = static_cast<unsigned char>((claimed >> (8 * i)) & 0xFFu);
  }
  ASSERT_EQ(send_all(tx.get(), header, sizeof(header)).status, IoStatus::Ok);
  ASSERT_EQ(send_all(tx.get(), payload).status, IoStatus::Ok);
  ::shutdown(tx.get(), SHUT_WR);

  g_largest.store(0);
  Frame frame;
  try {
    read_frame(rx.get(), frame);
    ADD_FAILURE() << "a frame 200 MiB short was read without error";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::Truncated) << e.what();
  }
  EXPECT_LE(g_largest.load(), std::size_t{2} << 20);
}

}  // namespace
}  // namespace darl::net
