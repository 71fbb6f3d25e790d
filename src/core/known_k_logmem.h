// udring/core/known_k_logmem.h
//
// Algorithms 2+3 (§3.2): uniform deployment with termination detection for
// agents that know k, using only O(log n) memory per agent, O(n log k) time
// and O(kn) total moves (Theorem 4).
//
// Selection phase (Algorithm 2): up to ⌈log k⌉ sub-phases. In each
// sub-phase every still-active agent travels one circuit and derives IDs
// from the geometry alone: its own ID (d_i, fNum_i) is the distance to the
// next active node and the number of follower nodes passed. Active nodes
// are token nodes with no staying agent (their owners are out traversing);
// follower nodes are token nodes with a staying agent. An agent survives a
// sub-phase iff its ID is the strict minimum w.r.t. its successor; if all
// remaining actives share one ID, they all become leaders and their home
// nodes are the base nodes (equidistant with equal home counts — the base
// node conditions).
//
// Deployment phase (Algorithm 3): each leader walks its segment, handing
// each follower the token count tBase to its base node, and halts on the
// next base node. A woken follower walks to that base node and then probes
// target positions (spaced by the §3.1.1 interval pattern), halting at the
// first vacant one.
//
// Modes: `strict_paper = true` follows the pseudocode literally: followers
// probe *every* target stop, including base nodes. On paper this looks racy
// — a follower could claim a base node before the leader destined for it
// arrives — but systematic adversarial search (every priority permutation
// plus thousands of random schedules; see tests/test_algo_logmem.cpp) finds
// no violation: FIFO links make any agent walking toward a base node queue
// *behind* the lagging leader and push it into its halt position first.
// The correctness of the literal pseudocode therefore leans on the FIFO
// non-overtaking property; on a substrate without FIFO links it would break.
// The default mode adds a belt-and-braces hardening that removes the
// dependency: the leader's message carries the segment geometry and
// followers skip base-node stops (reserved for leaders). Both modes pass the
// full suite; the strict mode is kept as a faithful-paper ablation.
// See DESIGN.md §6 and EXPERIMENTS.md.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/agent.h"

namespace udring::core {

class KnownKLogMemAgent final : public sim::CopyableProgram<KnownKLogMemAgent> {
 public:
  enum Phase : std::size_t { kSelection = 0, kDeployment = 1 };

  enum class Role : std::uint8_t { Active, Leader, Follower };

  struct Options {
    /// Follow Algorithm 3 to the letter (followers may halt on base nodes).
    bool strict_paper = false;
  };

  explicit KnownKLogMemAgent(std::size_t k) : KnownKLogMemAgent(k, Options{}) {}
  KnownKLogMemAgent(std::size_t k, Options options);

  [[nodiscard]] std::string_view name() const override { return "known-k-logmem"; }
  [[nodiscard]] std::size_t compute_memory_bits() const override;
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::vector<std::string_view> phase_names() const override {
    return {"selection", "deployment"};
  }

  // ---- inspection (tests / experiments) -----------------------------------

  [[nodiscard]] Role role() const noexcept { return role_; }
  /// Sub-phases completed when selection ended (≤ ⌈log k⌉ + 1).
  [[nodiscard]] std::size_t sub_phases() const noexcept { return sub_phase_; }
  /// Ring size measured in the first sub-phase.
  [[nodiscard]] std::size_t measured_n() const noexcept { return n_; }
  /// Final own ID (valid for leaders: the segment geometry source).
  [[nodiscard]] std::size_t id_distance() const noexcept { return d_own_; }
  [[nodiscard]] std::size_t id_follower_count() const noexcept { return fnum_own_; }

 private:
  sim::Request act(sim::AgentContext& ctx) override;

  /// The leader's Algorithm-3 notification for a follower `t_base` token
  /// nodes short of the next base node, carrying the segment geometry.
  [[nodiscard]] sim::BaseInfoMessage base_info(std::size_t t_base) const;

  /// Follower: stores the first BaseInfoMessage of `inbox` in info_; false
  /// when there is none (keep waiting).
  bool take_base_info(const std::vector<sim::Message>& inbox);

  std::size_t k_;
  Options options_;

  // ---- O(log n) algorithm state: scalars only, no arrays ------------------
  std::size_t sub_phase_ = 1;
  std::size_t n_ = 0;            // measured ring size (after sub-phase 1)
  std::size_t tokens_seen_ = 0;  // token sightings in the current circuit
  std::size_t d_own_ = 0, fnum_own_ = 0;      // ID_i
  std::size_t d_next_ = 0, fnum_next_ = 0;    // ID_next
  std::size_t d_other_ = 0, fnum_other_ = 0;  // ID_other (reused)
  bool identical_ = true;
  bool min_ = true;
  Role role_ = Role::Active;

  // Deployment-phase scalars.
  std::size_t walk_count_ = 0;    // leader: followers informed; follower: tokens seen
  std::size_t target_index_ = 0;  // follower: position in the interval pattern

  // Await-spanning locals, kept out of state_hash and memory_bits like the
  // resume point (see sim/agent.h).
  bool first_circuit_ = false;    // this sub-phase also measures n
  sim::BaseInfoMessage info_;     // follower: the leader's notification
  std::size_t steps_left_ = 0;    // follower: moves left to the next stop
};

}  // namespace udring::core
