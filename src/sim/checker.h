// udring/sim/checker.h
//
// Machine-checked oracles for agent-coordination goals on the simulator:
// uniform deployment (Definitions 1 and 2 of the paper), g-partial
// gathering, dispersion, and total gathering (rendezvous), plus the
// reachable-configuration model invariants.
//
// The checkers are deliberately *independent* of the core algorithm
// library: they recompute gaps and target arithmetic from first principles
// so that a bug shared between an algorithm and its checker cannot hide.
// They consume only observable simulator state (positions, statuses,
// queues, mailboxes).
//
// Drivers (runner, fuzzer, model checker, campaigns) do not call the goal
// predicates directly; they go through the GoalOracle interface below so
// one verification stack serves every problem.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.h"

namespace udring::sim {

/// Result of a predicate evaluation: `ok` plus a human-readable reason when
/// the predicate fails (used directly in gtest messages).
struct CheckResult {
  bool ok = true;
  std::string reason;

  explicit operator bool() const noexcept { return ok; }

  static CheckResult pass() { return {}; }
  static CheckResult fail(std::string why) { return {false, std::move(why)}; }
};

/// The distance between consecutive positions around an n-ring; positions
/// need not be sorted; the result is sorted by position. Requires at least
/// one position.
[[nodiscard]] std::vector<std::size_t> ring_gaps(std::vector<std::size_t> positions,
                                                 std::size_t node_count);

/// Are `positions` (distinct nodes) a uniform deployment of k agents on an
/// n-ring? True iff every gap between adjacent agents is ⌊n/k⌋ or ⌈n/k⌉ —
/// equivalently, exactly (n mod k) gaps equal ⌈n/k⌉ and the rest ⌊n/k⌋.
/// k = 1 is trivially uniform.
[[nodiscard]] CheckResult check_positions_uniform(std::vector<std::size_t> positions,
                                                  std::size_t node_count);

/// Model invariants that must hold in *any* reachable configuration:
/// agent/staying-set consistency, token conservation (tokens never exceed
/// the number of agents and never decrease — callers track the prior count),
/// and queue sanity. Used by randomized tests after every step. Reads queues
/// and agents directly (no Snapshot materialization): O(n + k) time, O(n + k)
/// per-thread scratch, reused.
///
/// Two passes over the same predicates. The pass path walks only the
/// non-empty queues (their nodes compacted without branching) and ORs every
/// per-member and per-agent predicate into one flag with no early exit; a
/// passing state costs that pass alone and returns CheckResult::pass()
/// (empty reason, no allocation). Only a failing state runs the ordered walk
/// — tokens, then queue members in node order, then agents in id order — to
/// name the first violation and format its reason. Every queue walk stops
/// after k members or at a link that is not an agent id, and reports either
/// as a violation naming the queue's node, so a corrupted state cannot hang
/// or overrun the check. IncrementalInvariantChecker uses the same
/// predicates, the same bounded walks and the same formatter.
[[nodiscard]] CheckResult check_model_invariants(const Simulator& sim,
                                                 std::size_t min_expected_tokens);

/// Incremental form of check_model_invariants for per-action checking at
/// fuzz scale (n ≫ 100): instead of re-walking every node and queue after
/// every atomic action, it revalidates only the action's conservative node
/// footprint (ExecutionState::last_action_nodes(), inside the pre-action
/// pair {node, live_next(node)}) against shadow queue-membership counts it
/// maintains, in O(dirty) per action. Token monotonicity stays a
/// full check — total_tokens() is O(1).
///
/// Soundness: a *legal* atomic action can only change state at its
/// footprint, so any invariant violation a single action introduces is
/// visible there and the incremental verdict equals the full one
/// (tests/test_checker_incremental.cpp fuzzes this equivalence). A sim bug
/// that corrupts state *outside* the last action's footprint is the one
/// class the per-action scan could miss; `full_check_every` schedules a
/// periodic full re-walk as the safety net for exactly that.
///
/// Contract: reset() on the state you will step, then call
/// check_after_action() after *every* atomic action (the shadow counts
/// track one action at a time; skipped actions surface at the next periodic
/// full check). Failure reasons use the same wording/prefixes as the full
/// checker. The object is pooled like ExecutionState: reset() reuses all
/// arena capacity.
class IncrementalInvariantChecker {
 public:
  struct Options {
    /// Run the full O(n + k) checker every this many actions (safety net);
    /// 0 = never (pure incremental).
    std::size_t full_check_every = 1024;
  };

  IncrementalInvariantChecker() noexcept = default;
  explicit IncrementalInvariantChecker(Options options) noexcept
      : options_(options) {}

  /// Reconfigures a pooled checker before (re)binding it to a run; takes
  /// effect at the next reset().
  void set_options(Options options) noexcept { options_ = options; }

  /// Binds the checker to `sim`'s *current* configuration: full-validates
  /// it and snapshots the shadow queue-membership counts. Returns the full
  /// check's verdict (a failing starting configuration is reported, not
  /// silently adopted).
  [[nodiscard]] CheckResult reset(const ExecutionState& sim,
                                  std::size_t min_expected_tokens = 0);

  /// Validates the configuration after the one atomic action executed since
  /// the previous call (or reset()).
  [[nodiscard]] CheckResult check_after_action(const ExecutionState& sim,
                                               std::size_t min_expected_tokens);

  /// Full checks executed so far via the safety net (reset() excluded).
  [[nodiscard]] std::size_t full_checks() const noexcept {
    return full_checks_;
  }

 private:
  void rebuild_shadow(const ExecutionState& sim);
  void touch(AgentId id);

  Options options_{};
  std::vector<std::uint32_t> in_queue_count_;      // per agent: #queues holding it
  std::vector<std::vector<AgentId>> queue_shadow_; // per node: last-seen contents
  std::vector<AgentId> touched_;                   // scratch: agents to revalidate
  std::vector<std::uint8_t> touched_mark_;         // scratch: dedup for touched_
  std::size_t actions_since_full_ = 0;
  std::size_t full_checks_ = 0;
};

/// Rendezvous oracle for the baseline contrast: all staying agents at one
/// node.
[[nodiscard]] CheckResult check_gathered(const Simulator& sim);

/// g-partial gathering: every agent halted, every link queue empty, and
/// every occupied node hosts at least g co-located agents. g <= 1 reduces
/// to plain termination. This is the pure configuration predicate; it knows
/// nothing about algorithm-detected unsolvability (core::make_goal_oracle
/// layers that on top for unsolvability-aware algorithms).
[[nodiscard]] CheckResult check_partial_gathering(const Simulator& sim,
                                                  std::size_t g);

/// Dispersion: every agent halted, every link queue empty, and every
/// occupied node hosts exactly one settled agent (all final positions
/// distinct).
[[nodiscard]] CheckResult check_dispersed(const Simulator& sim);

/// The problem-agnostic verification interface every driver (core runner,
/// fuzzer, model checker, campaign engine) routes through.
///
/// An oracle bundles the two judgements a schedule-space search needs:
///
///   * check_goal   — is this quiescent configuration a correct outcome?
///   * check_action — did the last atomic action preserve the reachable-
///                    configuration model invariants? It forwards to
///                    check_model_invariants (or, when the caller passes
///                    its pooled IncrementalInvariantChecker, to its
///                    O(dirty) per-action form) for every problem.
///
/// Oracles are immutable after construction and safe to share across the
/// model checker's worker shards. The deployment and dispersion oracles
/// live below; the gathering-family oracle, which must inspect agent
/// programs for an unsolvability verdict, lives in core::make_goal_oracle,
/// which is how drivers obtain the right oracle for an (algorithm,
/// ProblemSpec) pair.
class GoalOracle {
 public:
  virtual ~GoalOracle() = default;

  /// Stable identifier for reports and failure messages.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Judges a quiescent configuration against the problem's goal.
  [[nodiscard]] virtual CheckResult check_goal(const Simulator& sim) const = 0;

  /// Per-action invariant hook; called by drivers after every atomic
  /// action. `incremental` is the caller's pooled checker (nullptr = run
  /// the full O(n + k) sweep).
  [[nodiscard]] CheckResult check_action(
      const Simulator& sim, std::size_t min_expected_tokens,
      IncrementalInvariantChecker* incremental = nullptr) const;
};

/// Uniform deployment (the paper's problem). `require_termination` selects
/// Definition 1 (halted) over Definition 2 (suspended, empty mailboxes).
class UniformDeploymentOracle final : public GoalOracle {
 public:
  explicit UniformDeploymentOracle(bool require_termination = true) noexcept
      : require_termination_(require_termination) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return require_termination_ ? "uniform-deployment"
                                : "uniform-deployment-relaxed";
  }
  [[nodiscard]] CheckResult check_goal(const Simulator& sim) const override;

 private:
  bool require_termination_;
};

/// Dispersion: exactly one settled agent per occupied node.
class DispersionOracle final : public GoalOracle {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "dispersion";
  }
  [[nodiscard]] CheckResult check_goal(const Simulator& sim) const override {
    return check_dispersed(sim);
  }
};

}  // namespace udring::sim
