// darl/rl/replay_buffer.hpp
//
// Uniform-sampling experience replay (the off-policy memory behind SAC,
// and the paper's §II-A "experience replay" background item).

#pragma once

#include <cstddef>
#include <vector>

#include "darl/rl/types.hpp"

namespace darl {
class Rng;
}

namespace darl::rl {

/// Fixed-capacity ring buffer of transitions with uniform minibatch
/// sampling. Overwrites the oldest entries once full.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  /// Append one transition (copies).
  void push(const Transition& t);

  /// Number of transitions currently stored.
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  /// Sample `n` transitions uniformly with replacement into `out`
  /// (replacing its contents). Requires a non-empty buffer. The pointers
  /// remain valid until the next push.
  void sample(std::size_t n, Rng& rng, std::vector<const Transition*>& out) const;

  /// Access by age-independent slot index (for tests).
  const Transition& at(std::size_t index) const;

  /// Total transitions ever pushed (including overwritten ones).
  std::size_t total_pushed() const { return total_pushed_; }

 private:
  std::size_t capacity_;
  std::vector<Transition> storage_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::size_t total_pushed_ = 0;
};

}  // namespace darl::rl
