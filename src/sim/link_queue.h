// udring/sim/link_queue.h
//
// FIFO link queue q_i with index-based storage: pop advances a head index
// instead of shifting or deallocating, the buffer rewinds to offset 0
// whenever the queue drains, and a lagging head is compacted in place
// (memmove, amortized O(1)) — so steady-state queue traffic performs no
// heap allocation, unlike std::deque's block churn. Capacity only ever
// grows to the historical maximum (≤ k), and clear() keeps it, which is
// what lets a pooled ExecutionState reuse every queue across runs.

#pragma once

#include <cstddef>
#include <vector>

#include "sim/types.h"

namespace udring::sim {

class LinkQueue {
 public:
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }

  /// Empties the queue, retaining the buffer capacity (pooled reuse).
  void clear() noexcept {
    buffer_.clear();
    head_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == buffer_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return buffer_.size() - head_;
  }
  [[nodiscard]] AgentId front() const { return buffer_[head_]; }

  void push_back(AgentId id) {
    if (head_ == buffer_.size()) {  // drained: rewind, reuse the whole buffer
      buffer_.clear();
      head_ = 0;
    }
    buffer_.push_back(id);
  }

  void pop_front() {
    ++head_;
    if (head_ == buffer_.size()) {
      buffer_.clear();
      head_ = 0;
    } else if (head_ >= 32 && head_ * 2 >= buffer_.size()) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Removes `id` from anywhere in the queue. Only the non-FIFO fault
  /// injection (FaultPlan::non_fifo) takes this path; regular executions
  /// always pop the head.
  bool remove(AgentId id) {
    for (std::size_t i = head_; i < buffer_.size(); ++i) {
      if (buffer_[i] != id) continue;
      if (i == head_) {
        pop_front();
      } else {
        buffer_.erase(buffer_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      return true;
    }
    return false;
  }

  [[nodiscard]] auto begin() const noexcept { return buffer_.begin() + static_cast<std::ptrdiff_t>(head_); }
  [[nodiscard]] auto end() const noexcept { return buffer_.end(); }

 private:
  std::vector<AgentId> buffer_;
  std::size_t head_ = 0;
};

}  // namespace udring::sim
