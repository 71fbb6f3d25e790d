// udring/sim/scheduler.h
//
// Fair schedulers. The paper quantifies over *all* fair schedules (§2.1); an
// execution is produced by repeatedly letting a scheduler choose among the
// currently enabled agents (queue heads, schedulable stayers, and parked
// agents with pending messages). The families here sample that quantifier
// from several directions:
//
//  - RoundRobinScheduler:  the canonical fair schedule.
//  - RandomScheduler:      seeded uniform choice (fair with probability 1).
//  - SynchronousScheduler: lockstep rounds — every enabled agent acts once
//                          per round. Realizes the ideal-time measure and
//                          the synchronous executions used in Theorem 5.
//  - PriorityScheduler:    always runs the highest-priority enabled agent;
//                          maximally starves the lowest. This is the
//                          adversary that exposes asynchrony bugs (it found
//                          the Algorithm-3 base-node race; see DESIGN.md).
//  - BurstScheduler:       runs one agent as long as it stays enabled before
//                          switching — extreme asynchrony bursts.
//
// All schedulers are fair on terminating workloads: an enabled agent is
// never ignored forever because the others eventually park or halt.
//
// Attach contract: ExecutionState::run calls attach(state) and then
// reset(agent_count) before the first action; step() does neither, so a
// driver stepping by hand makes both calls itself. A scheduler may read the
// attached state in any pick() until the next attach(), so the state must
// outlive the scheduler's use or be replaced by attaching another.
// RoundRobinScheduler and SynchronousScheduler use it to recognise when
// pick() is handed that state's own enabled(); any other vector gets the
// reference scan. Round-robin then draws from the state's enabled_bits()
// mask in O(k/64). The synchronous draw resumes its scan at a cursor, which
// the state's removal floor (ExecutionState::enabled_removal_floor(), the
// lowest position of enabled() a removal rewrote since the last draw of
// run() or step()) pulls back when a crash or the non-FIFO refresh sweep
// removes an agent below it; and it scans from the front when any action
// but the one its own last draw chose ran since that draw (another
// scheduler's step(), a step_agent()), which it tells by actions_executed().
// A reset() or a copy over the state sets the floor to 0, so the next draw
// of run() or step() scans from the front; a scheduler that did not make
// that draw should be attached again before it draws.
//
// Pooled reuse contract: a scheduler object may drive many runs back to
// back. reset(agent_count) must restore *every* piece of mutable state —
// including RNGs, which re-seed from the stored seed — so a reused
// scheduler is byte-identical to a freshly constructed one (pinned by
// tests/test_pooling.cpp). reseed() swaps the stored seed between runs,
// which is how core::RunContext caches one scheduler per kind across a
// whole campaign.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.h"
#include "util/rng.h"

namespace udring::sim {

class ExecutionState;
enum class SchedulerKind;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Lets a scheduler observe the execution it is about to drive. Called by
  /// ExecutionState::run (and the explore harnesses) before reset(). The
  /// adversarial schedulers in src/explore use the observable state
  /// (statuses, queue lengths, metrics) to steer their choices;
  /// RoundRobinScheduler reads its enabled-set bitmask. The state must stay
  /// alive while the scheduler draws for it (see the attach contract above).
  virtual void attach(const ExecutionState& sim) { (void)sim; }

  /// Called by ExecutionState::run before the first action. Restores the
  /// scheduler to its just-constructed behaviour (see the pooled reuse
  /// contract above).
  virtual void reset(std::size_t agent_count) { (void)agent_count; }

  /// Replaces the stored seed ahead of the next reset(); no-op for
  /// deterministic kinds. Lets pooled drivers reuse one scheduler object
  /// across runs with per-run seeds.
  virtual void reseed(std::uint64_t seed) { (void)seed; }

  /// Chooses the next agent to act from `enabled` (never empty, unordered).
  [[nodiscard]] virtual AgentId pick(const std::vector<AgentId>& enabled) = 0;

  /// Chooses an index in [0, bound) at a *non-agent* choice point — today,
  /// which replacement cycle a pending dynamic-ring rewiring installs
  /// (sim/fault.h). Part of the same choice stream as pick(): the recording
  /// and replaying schedulers in src/explore intercept it, so rewiring
  /// choices land in ScheduleTrace::choices and replay byte-identically.
  /// `bound` is ≥ 1. A deliberately separate virtual (NOT routed through
  /// pick()): pick()'s implementations index agent-count-sized tables by
  /// the returned id, which candidate indices would overflow.
  ///
  /// Default: the last candidate — for rewiring, the largest coprime
  /// stride, the most disruptive deterministic choice. Randomized kinds
  /// draw from their stream instead.
  [[nodiscard]] virtual std::size_t pick_index(std::size_t bound) {
    return bound - 1;
  }

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Completed lockstep rounds; 0 for schedulers without round structure.
  [[nodiscard]] virtual std::uint64_t rounds() const { return 0; }
};

// The pick() bodies of the random, priority and burst kinds live here,
// in-class, so a caller holding the concrete type (RewiringAdversary's inner
// RandomScheduler) can inline them. Cold members (reset, constructors) and
// the round-robin and synchronous pick(), which need ExecutionState's
// definition, stay in scheduler.cpp.

/// Cycles through agent ids, running the first enabled agent at or after the
/// cursor.
///
/// Two draws with one result. When pick() is handed the attached state's own
/// enabled() (the ExecutionState::run and step() loops), it takes the first
/// set bit of enabled_bits() at or after the cursor, wrapping to bit 0:
/// O(k/64). Any other vector (direct pick() calls, an unattached scheduler,
/// another state's set) gets the reference scan over every enabled id:
/// O(|enabled|). The mask draw is also skipped while reset() was last given
/// fewer agents than the state holds, where the scan's cyclic keys no longer
/// order every id; with that guard both draws return the same agent for
/// every cursor and set.
class RoundRobinScheduler final : public Scheduler {
 public:
  void attach(const ExecutionState& sim) override;
  void reset(std::size_t agent_count) override;
  AgentId pick(const std::vector<AgentId>& enabled) override;
  [[nodiscard]] std::string_view name() const override { return "round-robin"; }

 private:
  const ExecutionState* attached_ = nullptr;
  // &attached_->enabled(), compared by address alone: a vector handed to
  // pick() is only dereferenced as the state's once it matches.
  const std::vector<AgentId>* attached_enabled_ = nullptr;
  std::size_t agent_count_ = 0;
  std::size_t cursor_ = 0;
};

/// Uniformly random choice among enabled agents (seeded, reproducible).
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  void reset(std::size_t agent_count) override;
  void reseed(std::uint64_t seed) override { seed_ = seed; }
  AgentId pick(const std::vector<AgentId>& enabled) override {
    // Depends on enabled's (insertion-with-swap-remove) order: part of the
    // frozen schedule derivation, like the Rng stream itself.
    return enabled[rng_.index(enabled.size())];
  }
  std::size_t pick_index(std::size_t bound) override {
    return rng_.index(bound);
  }
  [[nodiscard]] std::string_view name() const override { return "random"; }

 private:
  std::uint64_t seed_;
  Rng rng_;
};

/// Lockstep rounds: within a round every enabled agent acts exactly once.
/// pick() returns the first agent of `enabled` that has not acted in the
/// current round, so an agent enabled mid-round acts in that same round;
/// the round closes only when every agent enabled at a pick has acted in
/// it. rounds() counts closed rounds (the execution's synchronous length,
/// which matches the ideal-time makespan).
///
/// Membership is tracked with per-agent round stamps (acted in round r ⇔
/// stamp == r), so advancing a round is O(1) instead of clearing a flag
/// array — this scheduler sits in every campaign's hot path.
///
/// Two scans with one result. The reference scan reads `enabled` from the
/// front: O(|enabled|) per draw, O(k²) per round. When pick() is handed the
/// attached state's own enabled() (the ExecutionState::run and step()
/// loops), it starts at a cursor instead: every position below the cursor
/// holds an agent already stamped this round, the cursor moves to the
/// picked position, and it returns to 0 when a round closes, so a round
/// costs amortized O(1) per draw. Between two draws enabled() changes only
/// by append and swap-remove; the acting agent's own removal lands at the
/// cursor, but a crash fault or the non-FIFO refresh sweep can remove an
/// agent below it and swap an unstamped one in. So the scan starts at
/// min(cursor, the state's enabled_removal_floor()). It starts at the front
/// whenever the action count shows that anything but one action ran since
/// this scheduler's last draw, and after attach() and reset().
class SynchronousScheduler final : public Scheduler {
 public:
  void attach(const ExecutionState& sim) override;
  void reset(std::size_t agent_count) override;
  AgentId pick(const std::vector<AgentId>& enabled) override;
  [[nodiscard]] std::string_view name() const override { return "synchronous"; }
  [[nodiscard]] std::uint64_t rounds() const override { return rounds_; }

 private:
  const ExecutionState* attached_ = nullptr;
  // &attached_->enabled(), compared by address alone, as in
  // RoundRobinScheduler.
  const std::vector<AgentId>* attached_enabled_ = nullptr;
  std::vector<std::uint64_t> acted_round_;  // 1-based stamp; 0 = never acted
  std::uint64_t rounds_ = 0;
  // Positions of the attached enabled() below cursor_ hold agents stamped
  // this round, as of the draw made at action count drawn_at_.
  std::size_t cursor_ = 0;
  std::size_t drawn_at_ = 0;
};

/// Always runs the enabled agent that appears earliest in `order`; agents
/// absent from `order` come last in id order. Deterministic adversary.
///
/// The default-constructed form derives the canonical adversarial order —
/// descending ids, so agent 0 is starved hardest — from reset()'s
/// agent_count, which makes one object reusable across runs of different
/// sizes (the pooled factory form). The explicit-order form pins a fixed
/// permutation for tests.
class PriorityScheduler final : public Scheduler {
 public:
  PriorityScheduler() = default;  ///< descending ids, sized at reset()
  explicit PriorityScheduler(std::vector<AgentId> order);
  void reset(std::size_t agent_count) override;
  AgentId pick(const std::vector<AgentId>& enabled) override {
    AgentId best = enabled.front();
    for (const AgentId id : enabled) {
      if (rank_[id] < rank_[best]) best = id;
    }
    return best;
  }
  [[nodiscard]] std::string_view name() const override { return "priority"; }

 private:
  bool descending_default_ = true;  ///< false once an explicit order is given
  std::vector<AgentId> order_;
  std::vector<std::size_t> rank_;  // agent id -> priority rank
};

/// Keeps scheduling the same agent while it remains enabled; switches (in
/// seeded random order) only when it parks, halts, or enters a link queue
/// behind another agent.
class BurstScheduler final : public Scheduler {
 public:
  explicit BurstScheduler(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  void reset(std::size_t agent_count) override;
  void reseed(std::uint64_t seed) override { seed_ = seed; }
  AgentId pick(const std::vector<AgentId>& enabled) override {
    if (current_ != kNoAgent &&
        std::find(enabled.begin(), enabled.end(), current_) != enabled.end()) {
      return current_;
    }
    current_ = enabled[rng_.index(enabled.size())];
    return current_;
  }
  std::size_t pick_index(std::size_t bound) override {
    return rng_.index(bound);
  }
  [[nodiscard]] std::string_view name() const override { return "burst"; }

 private:
  std::uint64_t seed_;
  Rng rng_;
  AgentId current_ = kNoAgent;

  static constexpr AgentId kNoAgent = static_cast<AgentId>(-1);
};

/// Scheduler families used by parameterized sweeps.
enum class SchedulerKind {
  RoundRobin,
  Random,
  Synchronous,
  Priority,  ///< victim = last agent (lowest priority = highest id)
  Burst,
};

/// Number of SchedulerKind values (sizes pooled per-kind caches).
inline constexpr std::size_t kSchedulerKindCount =
    static_cast<std::size_t>(SchedulerKind::Burst) + 1;

[[nodiscard]] std::string_view to_string(SchedulerKind kind) noexcept;

/// All kinds, for INSTANTIATE_TEST_SUITE_P sweeps.
[[nodiscard]] const std::vector<SchedulerKind>& all_scheduler_kinds();

/// Factory. `seed` feeds the randomized kinds; every kind sizes itself from
/// reset(agent_count), so the returned object is reusable across runs
/// (reseed() + reset()). `agent_count` is retained for source compatibility.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                                        std::uint64_t seed,
                                                        std::size_t agent_count);

}  // namespace udring::sim
