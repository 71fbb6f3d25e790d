// udring/sim/metrics.h
//
// Complexity instrumentation matching the paper's three measures:
//
//  - total moves:       one per link traversal (Theorems 1, 3, 4, 6);
//  - ideal time:        a causal clock where every move or wait costs at
//                       most one unit and local computation is free (§2.2's
//                       "ideal time complexity") — each action is stamped
//                       max(agent's previous stamp, enabling event) + 1 and
//                       the execution's time is the maximum stamp;
//  - memory bits:       the peak of AgentProgram::memory_bits() sampled
//                       after every action of that agent.
//
// Per-phase move counts support the phase-cost experiments (Fig 4–6).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace udring::sim {

struct AgentMetrics {
  std::size_t moves = 0;
  std::size_t actions = 0;
  std::uint64_t causal_time = 0;      ///< stamp of the agent's latest action
  std::size_t peak_memory_bits = 0;
  std::size_t phase = 0;              ///< current phase tag (set_phase)
  std::vector<std::size_t> moves_by_phase;

  void count_move() {
    ++moves;
    if (moves_by_phase.size() <= phase) moves_by_phase.resize(phase + 1, 0);
    ++moves_by_phase[phase];
  }

  /// Zeroes everything, keeping moves_by_phase's capacity (pooled reuse).
  void reset() noexcept {
    moves = actions = 0;
    causal_time = 0;
    peak_memory_bits = phase = 0;
    moves_by_phase.clear();
  }

  friend bool operator==(const AgentMetrics&, const AgentMetrics&) = default;
};

class Metrics {
 public:
  Metrics() = default;
  explicit Metrics(std::size_t agent_count) : per_agent_(agent_count) {}

  /// Resizes to `agent_count` and zeroes every entry, reusing the per-agent
  /// vectors' capacity (ExecutionState::reset).
  void reset(std::size_t agent_count) {
    per_agent_.resize(agent_count);
    for (auto& agent : per_agent_) agent.reset();
  }

  // Unchecked: agent ids are simulator-internal and always in range, and
  // this accessor sits on the per-action hot path.
  [[nodiscard]] AgentMetrics& agent(std::size_t id) { return per_agent_[id]; }
  [[nodiscard]] const AgentMetrics& agent(std::size_t id) const {
    return per_agent_[id];
  }
  [[nodiscard]] std::size_t agent_count() const noexcept { return per_agent_.size(); }

  [[nodiscard]] std::size_t total_moves() const noexcept;
  [[nodiscard]] std::size_t total_actions() const noexcept;

  /// Ideal-time makespan: the maximum causal stamp over all actions.
  [[nodiscard]] std::uint64_t makespan() const noexcept;

  /// Peak memory bits over all agents (the paper's per-agent bound is the
  /// max, not the sum).
  [[nodiscard]] std::size_t max_memory_bits() const noexcept;

  /// Sum of per-phase moves across agents; index = phase.
  [[nodiscard]] std::vector<std::size_t> moves_by_phase() const;

 private:
  std::vector<AgentMetrics> per_agent_;
};

}  // namespace udring::sim
