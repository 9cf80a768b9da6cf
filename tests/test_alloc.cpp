// Allocation counts on the learner's per-sample paths.
//
// This binary replaces the global operator new with a counting one, so
// a test can read how many heap allocations a call makes. A path that
// keeps its buffers as members allocates while it warms up and never
// after.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "darl/common/rng.hpp"
#include "darl/rl/actor_critic.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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
