#include "darl/rl/replay_buffer.hpp"

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/obs/metrics.hpp"

namespace darl::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  DARL_CHECK(capacity > 0, "replay capacity must be positive");
  storage_.reserve(capacity);
}

void ReplayBuffer::push(const Transition& t) {
  if (size_ < capacity_) {
    storage_.push_back(t);
    ++size_;
  } else {
    storage_[next_] = t;
  }
  next_ = (next_ + 1) % capacity_;
  ++total_pushed_;
  DARL_COUNTER_ADD("replay.push", 1);
}

void ReplayBuffer::sample(std::size_t n, Rng& rng,
                          std::vector<const Transition*>& out) const {
  DARL_CHECK(!empty(), "sampling from an empty replay buffer");
  DARL_COUNTER_ADD("replay.sample", n);
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = &storage_[rng.index(size_)];
}

const Transition& ReplayBuffer::at(std::size_t index) const {
  DARL_CHECK(index < size_, "replay index " << index << " out of " << size_);
  return storage_[index];
}

}  // namespace darl::rl
