// udring/explore/replay.h
//
// Record/replay schedulers.
//
// RecordingScheduler wraps any scheduler and writes down, for every pick,
// the chosen agent's index within the *sorted* enabled set — its rank,
// counted in one pass over the enabled set with no copy or sort.
// ReplayScheduler consumes such a sequence and reproduces the picks,
// selecting the rank-th smallest enabled id in O(|enabled|). Because the
// simulator is deterministic given the pick sequence, record → replay
// reproduces the execution byte-identically (pinned by the event-log digest
// in tests/test_replay.cpp, for every scheduler family).
//
// The sorted-index encoding is deliberate: it is independent of the
// simulator's internal enabled-set ordering, and it keeps a *mutated* trace
// meaningful — the shrinker deletes and zeroes entries, the replay reduces
// each entry modulo the current enabled count, and an exhausted trace pads
// with index 0 (a fixed fair fallback), so every candidate the shrinker
// tries is a complete, valid schedule.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/scheduler.h"

namespace udring::explore {

class RecordingScheduler final : public sim::Scheduler {
 public:
  explicit RecordingScheduler(std::unique_ptr<sim::Scheduler> inner);

  void attach(const sim::ExecutionState& sim) override { inner_->attach(sim); }
  void reset(std::size_t agent_count) override;
  sim::AgentId pick(const std::vector<sim::AgentId>& enabled) override;
  /// Auxiliary draws (dynamic-ring rewiring strides, sim/fault.h) interleave
  /// into the same choice stream as agent picks: the simulator consumes them
  /// at deterministic points, so position alone disambiguates the two kinds
  /// and one ddmin pass shrinks schedule and fault choices jointly.
  [[nodiscard]] std::size_t pick_index(std::size_t bound) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::uint64_t rounds() const override { return inner_->rounds(); }

  /// The recorded choice sequence so far (one entry per pick since reset).
  [[nodiscard]] const std::vector<std::uint32_t>& choices() const noexcept {
    return choices_;
  }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  std::string name_;
  std::vector<std::uint32_t> choices_;
};

/// Replays a choice sequence leniently: every entry is reduced modulo the
/// current enabled count and an exhausted trace pads with index 0, so a
/// mutated trace (the shrinker's candidates) is still a complete schedule.
class ReplayScheduler final : public sim::Scheduler {
 public:
  explicit ReplayScheduler(std::vector<std::uint32_t> choices)
      : choices_(std::move(choices)) {}

  void reset(std::size_t agent_count) override;
  sim::AgentId pick(const std::vector<sim::AgentId>& enabled) override;
  /// Consumes the next trace entry as an auxiliary index (rewiring stride
  /// draws), mirroring RecordingScheduler::pick_index: entries reduce modulo
  /// `bound` and an exhausted trace pads with 0.
  [[nodiscard]] std::size_t pick_index(std::size_t bound) override;
  [[nodiscard]] std::string_view name() const override { return "replay"; }

  /// Picks served so far (> choices().size() means the fallback padded).
  [[nodiscard]] std::size_t consumed() const noexcept { return cursor_; }
  [[nodiscard]] const std::vector<std::uint32_t>& choices() const noexcept {
    return choices_;
  }

 private:
  std::vector<std::uint32_t> choices_;
  std::size_t cursor_ = 0;
  std::vector<sim::AgentId> scratch_;  // the select's copy, reused across picks
};

}  // namespace udring::explore
