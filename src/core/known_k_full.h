// udring/core/known_k_full.h
//
// Algorithm 1 (§3.1): uniform deployment *with termination detection* for
// agents that know k. O(k log n) memory, O(n) time, O(kn) total moves —
// time-optimal (Theorem 3).
//
// Selection phase:  release the token at the home node, travel one full
//                   circuit (k token nodes) recording the distance sequence
//                   D; n = ΣD. The agent whose rotation of D is
//                   lexicographically minimal owns the base node; the agent
//                   itself is the rank-th agent to that base, where rank is
//                   the minimal x with shift(D, x) = Dmin.
//
// Deployment phase: move disBase = D[0]+…+D[rank−1] to the base node, then
//                   offset(rank) further to the target node and halt. The
//                   offset uses the §3.1.1 rule for n ≠ ck: within each of
//                   the b = l base segments the first r/b gaps are ⌈n/k⌉,
//                   the rest ⌊n/k⌋ (r = n mod k, l = symmetry degree).
//
// On periodic configurations every period block elects its own base node;
// ranks are taken within the block, so the deployment is collision-free by
// arithmetic alone — no runtime coordination is needed after selection.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/distance_sequence.h"
#include "sim/agent.h"

namespace udring::core {

class KnownKFullAgent final : public sim::CopyableProgram<KnownKFullAgent> {
 public:
  /// Phase indices reported through AgentContext::set_phase.
  enum Phase : std::size_t { kSelection = 0, kDeployment = 1 };

  explicit KnownKFullAgent(std::size_t k);

  [[nodiscard]] std::string_view name() const override { return "known-k-full"; }
  [[nodiscard]] std::size_t compute_memory_bits() const override;
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::vector<std::string_view> phase_names() const override {
    return {"selection", "deployment"};
  }

  // ---- inspection (tests / experiments) -----------------------------------

  /// The recorded distance sequence; complete after the selection phase.
  [[nodiscard]] const DistanceSeq& distance_sequence() const noexcept { return d_; }
  /// Ring size measured during selection (0 before completion).
  [[nodiscard]] std::size_t measured_n() const noexcept { return n_; }
  /// This agent's rank relative to its base node.
  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }
  /// Distance from the home node to the base node.
  [[nodiscard]] std::size_t dis_base() const noexcept { return dis_base_; }

 private:
  sim::Request act(sim::AgentContext& ctx) override;

  std::size_t k_;

  // Algorithm state (named members so memory_bits/state_hash see them).
  DistanceSeq d_;
  Distance d_max_ = 0;  // max(d_), 0 while empty; derived, so not hashed
  std::size_t n_ = 0;
  std::size_t rank_ = 0;
  std::size_t dis_base_ = 0;

  // Await-spanning locals, kept out of state_hash and memory_bits like the
  // resume point (see sim/agent.h).
  std::size_t dis_ = 0;         // distance walked toward the next token node
  std::size_t steps_left_ = 0;  // deployment moves still to make
};

/// Footnote 2 of the paper: "agents with knowledge of n can similarly solve
/// the problem" — the same two-phase algorithm, but the agent detects
/// completing its circuit by accumulated distance (= n) instead of by
/// counting k tokens, and learns k = |D| on the way. Costs are identical to
/// Algorithm 1; the two variants must land every agent on the same target
/// (tests/test_algo_full.cpp cross-checks them).
class KnownNFullAgent final : public sim::CopyableProgram<KnownNFullAgent> {
 public:
  enum Phase : std::size_t { kSelection = 0, kDeployment = 1 };

  explicit KnownNFullAgent(std::size_t n);

  [[nodiscard]] std::string_view name() const override { return "known-n-full"; }
  [[nodiscard]] std::size_t compute_memory_bits() const override;
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::vector<std::string_view> phase_names() const override {
    return {"selection", "deployment"};
  }

  /// Number of agents learned during the circuit (0 before completion).
  [[nodiscard]] std::size_t measured_k() const noexcept { return d_.size(); }
  [[nodiscard]] const DistanceSeq& distance_sequence() const noexcept { return d_; }
  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }

 private:
  sim::Request act(sim::AgentContext& ctx) override;

  std::size_t n_;

  DistanceSeq d_;
  Distance d_max_ = 0;  // max(d_), 0 while empty; derived, so not hashed
  std::size_t traveled_ = 0;
  std::size_t rank_ = 0;
  std::size_t dis_base_ = 0;

  // Protothread locals (see KnownKFullAgent).
  std::size_t dis_ = 0;
  std::size_t steps_left_ = 0;
};

}  // namespace udring::core
