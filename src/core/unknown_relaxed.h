// udring/core/unknown_relaxed.h
//
// Algorithms 4+5+6 (§4.2): relaxed uniform deployment (no termination
// detection) for agents with *no knowledge of k or n*. With the initial
// configuration's symmetry degree l, the costs are O((k/l)·log(n/l)) memory,
// O(n/l) time and O(kn/l) total moves (Theorem 6) — the more symmetric the
// start, the cheaper the run.
//
// Estimating phase (Alg 4): record inter-token distances until the observed
//   sequence is a 4-fold repetition D = S⁴; estimate k' = |S|, n' = ΣS.
//   Misestimates are possible but bounded: n' ≤ n/2 (Lemma 3), and in an
//   aperiodic ring at least one agent estimates n exactly (Lemma 4). In an
//   (N, l)-ring every agent converges to the fundamental-ring size N = n/l
//   (Lemmas 7–9) — the source of the 1/l speedup.
//
// Patrolling phase (Alg 5): keep moving until 12·n' total moves, handing
//   (n', k', nodes, D) to any staying (i.e. prematurely suspended) agent.
//
// Deployment phase (Alg 6): rank = min-rotation index of D; walk
//   disBase + offset(rank) to the target and enter the suspended state
//   (Definition 2). A suspended agent woken by a message with n' ≤ n'ℓ/2
//   whose window aligns (Dℓ offset t with prefix-sum = nodesℓ − nodes)
//   adopts the larger estimate, tops its move count up to 12·n'ℓ — a
//   multiple of n'ℓ, so its position is home + disBase + offset mod n'ℓ,
//   exactly as if it had deployed from home — and redeploys.
//
// Reproduction note: the resume condition's offset t must be taken over the
// *periodic extension* of Dℓ (equivalently, nodesℓ − nodes reduced modulo
// n'ℓ). Read with t bounded by |Dℓ| = 4k'ℓ, as the pseudocode literally
// states, there are instances where no patroller visit ever satisfies the
// condition and a misestimating agent stays wrong forever — e.g. the packed
// Theorem-1 configuration (the head-of-arc agent estimates n' = 1 and parks
// before any correct estimator finishes estimating, so every later visit has
// nodesℓ − nodes > 4n'ℓ). See DESIGN.md §6 item 7 and
// tests/test_algo_relaxed.cpp (PackedConfigurationRegression).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/distance_sequence.h"
#include "sim/agent.h"
#include "sim/message.h"

namespace udring::core {

class UnknownRelaxedAgent final : public sim::CopyableProgram<UnknownRelaxedAgent> {
 public:
  enum Phase : std::size_t {
    kEstimating = 0,
    kPatrolling = 1,
    kDeploying = 2,
    kSuspendedPhase = 3,
  };

  UnknownRelaxedAgent() = default;

  [[nodiscard]] std::string_view name() const override { return "unknown-relaxed"; }
  [[nodiscard]] std::size_t compute_memory_bits() const override;
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::vector<std::string_view> phase_names() const override {
    return {"estimating", "patrolling", "deploying", "suspended"};
  }

  // ---- inspection (tests / experiments) -----------------------------------

  /// Current estimates (0 while still estimating).
  [[nodiscard]] std::size_t estimated_n() const noexcept { return n_est_; }
  [[nodiscard]] std::size_t estimated_k() const noexcept { return k_est_; }
  /// The very first estimate from the estimating phase (Lemma 3/4 tests).
  [[nodiscard]] std::size_t first_estimate_n() const noexcept { return first_n_est_; }
  /// Total nodes visited ("nodes" in the pseudocode).
  [[nodiscard]] std::size_t nodes_visited() const noexcept { return nodes_; }
  /// Times this agent adopted a larger estimate from a message.
  [[nodiscard]] std::size_t corrections() const noexcept { return corrections_; }
  [[nodiscard]] const DistanceSeq& distance_sequence() const noexcept { return d_; }

 private:
  sim::Request act(sim::AgentContext& ctx) override;

  /// Examines delivered messages; if one satisfies the Algorithm-6 resume
  /// conditions, returns the shift t and the message (best = largest n'ℓ).
  [[nodiscard]] std::optional<std::pair<sim::EstimateMessage, std::size_t>>
  pick_resume_message(const std::vector<sim::Message>& inbox) const;

  // Algorithm state (named members for memory accounting & state hashing).
  DistanceSeq d_;
  Distance d_max_ = 0;  // max(d_), 0 while empty; derived, so not hashed
  std::size_t n_est_ = 0;
  std::size_t k_est_ = 0;
  std::size_t nodes_ = 0;
  std::size_t rank_ = 0;
  std::size_t dis_base_ = 0;

  // Instrumentation only (not counted in memory_bits).
  std::size_t first_n_est_ = 0;
  std::size_t corrections_ = 0;

  // Await-spanning locals, kept out of state_hash and memory_bits like the
  // resume point (see sim/agent.h).
  std::size_t observed_ = 0;    // distances recorded while estimating (j)
  std::size_t dis_ = 0;         // distance walked toward the next token node
  std::size_t steps_left_ = 0;  // deployment moves still to make
};

}  // namespace udring::core
