#include "explore/replay.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace udring::explore {

RecordingScheduler::RecordingScheduler(std::unique_ptr<sim::Scheduler> inner)
    : inner_(std::move(inner)) {
  if (!inner_) {
    throw std::invalid_argument("RecordingScheduler: null inner scheduler");
  }
  name_ = "recording(" + std::string(inner_->name()) + ")";
}

void RecordingScheduler::reset(std::size_t agent_count) {
  choices_.clear();
  inner_->reset(agent_count);
}

sim::AgentId RecordingScheduler::pick(const std::vector<sim::AgentId>& enabled) {
  const sim::AgentId chosen = inner_->pick(enabled);
  // Ids are distinct, so the pick's index in the sorted enabled set is the
  // number of enabled ids below it; the same pass checks it is enabled.
  std::size_t rank = 0;
  bool found = false;
  for (const sim::AgentId id : enabled) {
    rank += id < chosen ? 1 : 0;
    found |= id == chosen;
  }
  if (!found) {
    throw std::logic_error("RecordingScheduler: inner pick not in enabled set");
  }
  choices_.push_back(static_cast<std::uint32_t>(rank));
  return chosen;
}

std::size_t RecordingScheduler::pick_index(std::size_t bound) {
  const std::size_t chosen = inner_->pick_index(bound);
  if (chosen >= bound) {
    throw std::logic_error("RecordingScheduler: inner pick_index out of range");
  }
  choices_.push_back(static_cast<std::uint32_t>(chosen));
  return chosen;
}

void ReplayScheduler::reset(std::size_t /*agent_count*/) { cursor_ = 0; }

sim::AgentId ReplayScheduler::pick(const std::vector<sim::AgentId>& enabled) {
  const std::uint32_t choice =
      cursor_ < choices_.size() ? choices_[cursor_] : 0;
  ++cursor_;
  // The (choice % size)-th smallest enabled id, selected in O(|enabled|).
  scratch_.assign(enabled.begin(), enabled.end());
  const auto nth = scratch_.begin() +
                   static_cast<std::ptrdiff_t>(choice % scratch_.size());
  std::nth_element(scratch_.begin(), nth, scratch_.end());
  return *nth;
}

std::size_t ReplayScheduler::pick_index(std::size_t bound) {
  const std::uint32_t choice =
      cursor_ < choices_.size() ? choices_[cursor_] : 0;
  ++cursor_;
  return choice % bound;
}

}  // namespace udring::explore
