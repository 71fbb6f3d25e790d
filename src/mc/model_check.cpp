#include "mc/model_check.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "explore/fuzz.h"
#include "explore/replay.h"
#include "sim/checker.h"
#include "sim/footprint.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace udring::mc {

namespace {

constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
/// Bitmask width of the sleep sets.
constexpr std::size_t kMaskAgents = 64;
/// The DFS snapshots the configuration of every kSnapshotEvery-th stack
/// frame; a backtrack copies the nearest snapshotted ancestor and re-steps
/// at most kSnapshotEvery - 1 recorded branches. 8 keeps the snapshot stack
/// of a ~200-deep walk at ~25 states.
constexpr std::size_t kSnapshotEvery = 8;

using AgentMask = VisitedMaskTable::Mask;

/// A choice-tree node handed from the BFS frontier phase to a DFS shard:
/// the schedule prefix that reaches it plus the sleep set it inherited.
struct ShardNode {
  std::vector<branch_index_t> prefix;
  AgentMask sleep = 0;
};

[[nodiscard]] sim::Instance build_instance(const CheckRequest& request) {
  core::RunSpec spec;
  spec.node_count = request.node_count;
  spec.homes = request.homes;
  spec.topology = request.topology;
  spec.problem = request.problem;
  spec.sim_options.record_events = false;  // history is not state; stay lean
  spec.sim_options.max_actions = request.max_actions;
  spec.sim_options.fault_non_fifo_links = request.fault_non_fifo;
  spec.sim_options.fault_non_fifo_min_phase = request.fault_min_phase;
  spec.sim_options.faults = request.faults;
  return core::make_instance(request.algorithm, spec);
}

/// The request's full fault plan: the structured plan plus the legacy
/// non-FIFO knobs (the Instance ctor's merge, reproduced for trace
/// provenance).
[[nodiscard]] sim::FaultPlan merged_fault_plan(const CheckRequest& request) {
  sim::FaultPlan plan = request.faults;
  plan.non_fifo = plan.non_fifo || request.fault_non_fifo;
  plan.non_fifo_min_phase =
      std::max(plan.non_fifo_min_phase, request.fault_min_phase);
  return plan;
}

/// One DFS (or BFS-expansion) engine over one pooled ExecutionState plus its
/// own pool of snapshot states. Not thread-safe; shards own independent
/// Explorers. In shared_visited mode the explorers additionally share the
/// claim set, the global action counter and the stop flag — all the
/// cross-thread state there is.
class Explorer {
 public:
  Explorer(const sim::Instance& instance, const sim::GoalOracle& oracle,
           const McOptions& options, sim::ExecutionState& state,
           std::size_t budget, VisitedMaskTable visited_seed,
           LockFreeVisitedSet* shared_visited = nullptr,
           std::atomic<std::size_t>* shared_actions = nullptr,
           std::atomic<bool>* stop_flag = nullptr)
      : instance_(instance),
        oracle_(oracle),
        options_(options),
        cur_(state),
        budget_(budget),
        visited_(std::move(visited_seed)),
        shared_(shared_visited),
        shared_actions_(shared_actions),
        stop_flag_(stop_flag),
        fault_mode_(instance.options().faults.has_events()) {}

  McStats stats;
  bool budget_stop = false;
  /// First violation in this explorer's deterministic walk order.
  std::optional<std::pair<std::vector<branch_index_t>, std::string>> violation;

  [[nodiscard]] const VisitedMaskTable& visited() const noexcept {
    return visited_;
  }

  /// Walks the whole subtree rooted at `prefix` (with inherited sleep set)
  /// by iterative DFS. The prefix node must be an open interior node (the
  /// tree root, or a node the BFS phase classified as open).
  void dfs(const std::vector<branch_index_t>& prefix, AgentMask root_sleep) {
    path_ = prefix;
    root_depth_ = prefix.size();
    reposition();
    std::vector<Frame> stack;
    push_frame(stack, make_frame(root_sleep, 0));

    while (!stack.empty() && !violation && !budget_stop && !should_stop()) {
      Frame& f = stack.back();
      const int b = pick_branch(f);
      if (b < 0) {
        pop_frame(stack);
        continue;
      }
      if (f.rewire) {
        // Rewire node: the branch is a candidate stride index, not an agent.
        // Applying it consumes no simulator action — the configuration
        // changes only in its live successor map — so the child classifies
        // like any configuration (dedup folds the fault state).
        if (!at_tip_) {
          restore(stack);
          if (!cur_.pending_rewire()) {
            throw std::logic_error(
                "mc: rewiring point vanished on snapshot restore "
                "(determinism bug)");
          }
        }
        path_.push_back(static_cast<branch_index_t>(b));
        cur_.apply_rewire(static_cast<std::size_t>(b));
        if (classify(f.sleep, cur_.total_tokens()) == NodeClass::Open) {
          push_frame(stack, make_frame(f.sleep, f.entered_agent));
        } else {
          path_.pop_back();
          at_tip_ = false;
        }
        continue;
      }
      const sim::AgentId agent = f.agents[static_cast<std::size_t>(b)];
      if (!at_tip_) {
        restore(stack);
        sort_enabled();
        if (sorted_ != f.agents) {
          throw std::logic_error(
              "mc: enabled set changed on snapshot restore (determinism bug)");
        }
      }
      const AgentMask child_sleep = inherit_sleep(f.agents, f.sleep, agent);
      const std::size_t prev_tokens = cur_.total_tokens();
      path_.push_back(static_cast<branch_index_t>(b));
      step(agent);
      if (classify(child_sleep, prev_tokens) == NodeClass::Open) {
        push_frame(stack, make_frame(child_sleep, agent));
      } else {
        path_.pop_back();
        at_tip_ = false;
        if (options_.sleep_sets) f.sleep |= bit(agent);
      }
    }
  }

  /// Expands every non-sleeping branch of every node of `level` one step,
  /// appending surviving open children to `next` (the BFS frontier phase).
  /// Stops early on violation or budget exhaustion.
  void expand_level(const std::vector<ShardNode>& level,
                    std::vector<ShardNode>& next) {
    for (const ShardNode& node : level) {
      if (violation || budget_stop || should_stop()) return;
      path_ = node.prefix;
      reposition();
      save_snapshot(0);
      sort_enabled();
      // Stepping invalidates the tip, and each sibling restores the node's
      // snapshot; copy the branch agents up front.
      const std::vector<sim::AgentId> agents = sorted_;
      AgentMask sleep = node.sleep;
      ++stats.states_expanded;
      const auto branch_count = static_cast<branch_index_t>(agents.size());
      for (branch_index_t b = 0; b < branch_count; ++b) {
        if (violation || budget_stop || should_stop()) return;
        const sim::AgentId agent = agents[b];
        if (options_.sleep_sets && (sleep & bit(agent)) != 0) {
          ++stats.sleep_pruned;
          continue;
        }
        if (!at_tip_) {
          cur_ = snapshots_[0];
          at_tip_ = true;
        }
        const AgentMask child_sleep = inherit_sleep(agents, sleep, agent);
        const std::size_t prev_tokens = cur_.total_tokens();
        path_.push_back(b);
        step(agent);
        if (classify(child_sleep, prev_tokens) == NodeClass::Open) {
          next.push_back({path_, child_sleep});
        }
        path_.pop_back();
        at_tip_ = false;
        if (options_.sleep_sets) sleep |= bit(agent);
      }
    }
  }

 private:
  struct Frame {
    std::vector<sim::AgentId> agents;  ///< sorted enabled set at this node
    AgentMask enabled_mask = 0;
    AgentMask sleep = 0;
    AgentMask done = 0;              ///< branches explored (or sleep-handled)
    branch_index_t next_branch = 0;  ///< sequential fallback (> 64 agents)
    bool rewire = false;             ///< branches = rewiring candidate strides
    branch_index_t rewire_branches = 0;  ///< candidate count of a rewire node
    sim::AgentId entered_agent = 0;  ///< edge into this node (parent's pick)
  };

  /// A configuration just stepped into is Open (interior: the caller pushes
  /// a frame / emits a BFS child) or a Leaf.
  enum class NodeClass { Open, Leaf };

  [[nodiscard]] static AgentMask bit(sim::AgentId agent) noexcept {
    return AgentMask{1} << agent;
  }
  [[nodiscard]] bool masks_usable() const noexcept {
    return cur_.agent_count() <= kMaskAgents;
  }
  [[nodiscard]] bool should_stop() const noexcept {
    return stop_flag_ != nullptr && stop_flag_->load(std::memory_order_relaxed);
  }

  [[nodiscard]] Frame make_frame(AgentMask sleep, sim::AgentId entered) {
    ++stats.states_expanded;
    Frame f;
    f.sleep = sleep;
    f.entered_agent = entered;
    if (fault_mode_ && cur_.pending_rewire()) {
      // A pending rewiring is its own choice-tree level: branches are the
      // candidate stride indices. Sleep sets are forced off under event
      // plans (mc::check), so the frame only needs the sequential branch
      // cursor.
      f.rewire = true;
      f.rewire_branches =
          static_cast<branch_index_t>(cur_.rewire_candidate_count());
      return f;
    }
    sort_enabled();
    f.agents = sorted_;
    if (masks_usable()) {
      for (const sim::AgentId a : f.agents) f.enabled_mask |= bit(a);
    }
    return f;
  }

  /// Next branch of `f` to explore, or -1 when the frame is exhausted.
  /// Bitmask-driven (lowest eligible agent id = sorted branch order); falls
  /// back to a plain scan when the instance exceeds the mask width, where
  /// sleep sets are auto-disabled anyway.
  [[nodiscard]] int pick_branch(Frame& f) {
    if (f.rewire) {
      if (f.next_branch >= f.rewire_branches) return -1;
      return static_cast<int>(f.next_branch++);
    }
    if (!masks_usable()) {
      if (f.next_branch >= f.agents.size()) return -1;
      return static_cast<int>(f.next_branch++);
    }
    const AgentMask avail = f.enabled_mask & ~f.done & ~f.sleep;
    if (avail == 0) return -1;
    const auto agent =
        static_cast<sim::AgentId>(std::countr_zero(avail));
    f.done |= bit(agent);
    const auto it = std::lower_bound(f.agents.begin(), f.agents.end(), agent);
    return static_cast<int>(it - f.agents.begin());
  }

  /// Pops the exhausted top frame: accounts the branches sleep sets left
  /// unexplored and applies the sleep-set edge rule to the parent.
  void pop_frame(std::vector<Frame>& stack) {
    const Frame& f = stack.back();
    if (masks_usable()) {
      stats.sleep_pruned += std::popcount(f.enabled_mask & ~f.done & f.sleep);
    }
    const sim::AgentId entered = f.entered_agent;
    stack.pop_back();
    if (!stack.empty()) {
      path_.pop_back();
      at_tip_ = false;
      if (options_.sleep_sets) stack.back().sleep |= bit(entered);
    }
  }

  /// Re-executes path_ from C_0 through a Strict-mode ReplayScheduler: how
  /// a walk reaches a bare prefix (a shard root, a BFS frontier node). A
  /// prefix that no longer replays exactly means the simulator is not
  /// deterministic in the pick sequence — a checker-invalidating bug,
  /// reported loudly. Fault plans force one shard rooted at C_0 (mc::check),
  /// so a replayed prefix never crosses a rewiring level.
  void reposition() {
    cur_.reset(instance_);
    if (!path_.empty()) {
      if (fault_mode_) {
        throw std::logic_error("mc: prefix replay under a fault plan");
      }
      explore::ReplayScheduler replayer(path_, explore::ReplayMode::Strict);
      replayer.reset(cur_.agent_count());
      for (std::size_t i = 0; i < path_.size(); ++i) {
        if (!cur_.step(replayer)) {
          throw std::logic_error("mc: prefix replay hit quiescence early");
        }
      }
      if (replayer.diverged()) {
        throw std::logic_error("mc: strict prefix replay diverged: " +
                               replayer.divergence());
      }
      ++stats.replays;
      count_actions(path_.size());
    }
    at_tip_ = true;
  }

  /// Pushes a frame made for the configuration cur_ sits at, snapshotting
  /// that configuration when the frame's stack index is a multiple of
  /// kSnapshotEvery.
  void push_frame(std::vector<Frame>& stack, Frame frame) {
    stack.push_back(std::move(frame));
    const std::size_t top = stack.size() - 1;
    if (top % kSnapshotEvery == 0) save_snapshot(top / kSnapshotEvery);
  }

  /// Copies cur_ into snapshot `slot` (reusing the slot's arena).
  void save_snapshot(std::size_t slot) {
    if (slot == snapshots_.size()) {
      snapshots_.push_back(cur_);
    } else {
      snapshots_[slot] = cur_;
    }
  }

  /// Moves cur_ back to the configuration of stack.back() after a descent
  /// left it at a child: copies the nearest snapshotted ancestor frame, then
  /// re-steps the branches path_ recorded below it. The caller re-checks the
  /// restored node against its frame (the determinism check).
  void restore(const std::vector<Frame>& stack) {
    const std::size_t top = stack.size() - 1;
    const std::size_t base = top - top % kSnapshotEvery;
    cur_ = snapshots_[base / kSnapshotEvery];
    std::size_t actions = 0;
    for (std::size_t i = base; i < top; ++i) {
      const Frame& f = stack[i];
      const branch_index_t b = path_[root_depth_ + i];
      if (f.rewire) {
        cur_.apply_rewire(b);
        continue;
      }
      if (!cur_.step_agent(f.agents[b])) {
        throw std::logic_error(
            "mc: recorded branch not enabled on snapshot restore "
            "(determinism bug)");
      }
      ++actions;
    }
    count_actions(actions);
    at_tip_ = true;
  }

  void count_actions(std::size_t actions) {
    stats.total_actions += actions;
    if (shared_actions_ != nullptr) {
      shared_actions_->fetch_add(actions, std::memory_order_relaxed);
    }
  }

  void sort_enabled() {
    sorted_.assign(cur_.enabled().begin(), cur_.enabled().end());
    std::sort(sorted_.begin(), sorted_.end());
  }

  void step(sim::AgentId agent) {
    if (!cur_.step_agent(agent)) {
      throw std::logic_error("mc: picked agent not enabled");
    }
    count_actions(1);
    stats.max_depth = std::max(stats.max_depth, path_.size());
  }

  /// Sleeping agents that stay asleep across the edge taken by `agent`:
  /// those whose pending action is independent of it (conservative
  /// footprint disjointness on {node, next(node)}). `enabled_agents` is the
  /// node's enabled set (sleep ⊆ enabled always holds — see model_check.h).
  [[nodiscard]] AgentMask inherit_sleep(
      const std::vector<sim::AgentId>& enabled_agents, AgentMask sleep,
      sim::AgentId agent) const {
    if (!options_.sleep_sets || sleep == 0) return 0;
    AgentMask child = 0;
    for (const sim::AgentId z : enabled_agents) {
      if ((sleep & bit(z)) != 0 && independent(z, agent)) child |= bit(z);
    }
    return child;
  }

  [[nodiscard]] bool independent(sim::AgentId a, sim::AgentId b) const {
    return sim::independent_actions(cur_, a, b);
  }

  /// Classifies the configuration just stepped into. Everything but an
  /// interior node is a leaf — quiescent schedule, violation, action limit,
  /// budget stop, or a dedup hit. Mirrors the fuzzer's drive_checked
  /// verdicts exactly, so a counterexample replays to the same failure.
  [[nodiscard]] NodeClass classify(AgentMask sleep, std::size_t prev_tokens) {
    const sim::CheckResult invariants = oracle_.check_action(cur_, prev_tokens);
    if (!invariants) {
      violation = {path_, "invariant: " + invariants.reason};
      signal_stop();
      return NodeClass::Leaf;
    }
    if (cur_.quiescent()) {
      ++stats.schedules;
      const sim::CheckResult goal = oracle_.check_goal(cur_);
      if (!goal) {
        violation = {path_, "goal: " + goal.reason};
        signal_stop();
      }
      return NodeClass::Leaf;
    }
    if (cur_.actions_executed() >= cur_.max_actions()) {
      ++stats.schedules;
      violation = {path_, "action limit reached (livelock or broken algorithm)"};
      signal_stop();
      return NodeClass::Leaf;
    }
    if (budget_ != kUnlimited && actions_spent() >= budget_) {
      budget_stop = true;
      return NodeClass::Leaf;
    }
    if (!options_.dedup_states) return NodeClass::Open;

    const std::uint64_t key = cur_.config_digest();
    if (shared_ != nullptr) {
      switch (shared_->insert(key)) {
        case LockFreeVisitedSet::Insert::Claimed:
          return NodeClass::Open;
        case LockFreeVisitedSet::Insert::Present:
          ++stats.states_deduped;
          return NodeClass::Leaf;
        case LockFreeVisitedSet::Insert::Full:
          budget_stop = true;  // undersized table: degrade, never lie
          return NodeClass::Leaf;
      }
    }
    // Subset rule: covered when an earlier expansion's sleep set is a
    // subset of this one (util/visited_set.h).
    if (visited_.covered_or_insert(key, sleep)) {
      ++stats.states_deduped;
      return NodeClass::Leaf;
    }
    return NodeClass::Open;
  }

  [[nodiscard]] std::size_t actions_spent() const noexcept {
    return shared_actions_ != nullptr
               ? shared_actions_->load(std::memory_order_relaxed)
               : stats.total_actions;
  }

  void signal_stop() noexcept {
    if (stop_flag_ != nullptr) {
      stop_flag_->store(true, std::memory_order_relaxed);
    }
  }

  const sim::Instance& instance_;
  const sim::GoalOracle& oracle_;
  const McOptions& options_;
  sim::ExecutionState& cur_;
  std::size_t budget_ = kUnlimited;
  VisitedMaskTable visited_;
  LockFreeVisitedSet* shared_ = nullptr;
  std::atomic<std::size_t>* shared_actions_ = nullptr;
  std::atomic<bool>* stop_flag_ = nullptr;
  /// True when the instance's fault plan has events: rewire choice levels
  /// exist (and the walk is one shard rooted at C_0).
  const bool fault_mode_ = false;
  std::vector<branch_index_t> path_;
  std::size_t root_depth_ = 0;  ///< path_ length at the DFS root frame
  /// snapshots_[j] = configuration of DFS stack frame j * kSnapshotEvery
  /// (slot 0 doubles as the BFS phase's per-node snapshot).
  std::vector<sim::ExecutionState> snapshots_;
  std::vector<sim::AgentId> sorted_;  // scratch, reused across nodes
  bool at_tip_ = false;
};

/// Builds the replayable counterexample trace for a violating path: digest
/// and note are refreshed from the trace's own replay (the same
/// drive-checked semantics), so the artifact is self-verifying like every
/// recorded/shrunk trace.
[[nodiscard]] explore::ScheduleTrace materialize_counterexample(
    const CheckRequest& request, const std::vector<branch_index_t>& choices,
    const std::string& reason) {
  explore::ScheduleTrace trace;
  trace.algorithm = request.algorithm;
  trace.node_count =
      request.topology.empty() ? request.node_count : request.topology.size();
  trace.homes = request.homes;
  trace.topology = request.topology.empty()
                       ? "ring"
                       : std::string(request.topology.name());
  trace.problem = request.problem;
  trace.generator = "model-check";
  trace.set_fault_plan(merged_fault_plan(request));
  trace.max_actions = request.max_actions;  // cap-sensitive verdicts replay
  trace.choices = choices;
  const explore::ReplayOutcome outcome = explore::replay_trace(trace);
  trace.expected_digest = outcome.digest;
  trace.note = outcome.failed ? outcome.reason : reason;
  return trace;
}

void fold_stats(std::uint64_t& state, const McStats& stats) {
  fold64(state, stats.schedules);
  fold64(state, stats.states_expanded);
  fold64(state, stats.states_deduped);
  fold64(state, stats.sleep_pruned);
  fold64(state, stats.dpor_pruned);  // always 0; keeps the digest layout
  fold64(state, stats.replays);
  fold64(state, stats.total_actions);
  fold64(state, stats.max_depth);
  fold64(state, stats.shards);
}

void accumulate(McStats& into, const McStats& from) {
  into.schedules += from.schedules;
  into.states_expanded += from.states_expanded;
  into.states_deduped += from.states_deduped;
  into.sleep_pruned += from.sleep_pruned;
  into.replays += from.replays;
  into.total_actions += from.total_actions;
  into.max_depth = std::max(into.max_depth, from.max_depth);
}

}  // namespace

std::uint64_t ModelCheckReport::digest() const {
  std::uint64_t state = 0x3c0de1c4ec5e7ULL;  // "model-check" domain
  fold64(state, complete ? 1 : 0);
  fold64(state, ok ? 1 : 0);
  fold_stats(state, stats);
  fold64(state, counterexample ? counterexample->choices.size() + 1 : 0);
  if (counterexample) {
    for (const branch_index_t choice : counterexample->choices) {
      fold64(state, choice);
    }
  }
  return state;
}

ModelCheckReport check(const CheckRequest& request, const McOptions& options) {
  if (request.homes.empty()) {
    throw std::invalid_argument("mc::check: no agents (homes empty)");
  }
  // Max-enabled-set guard: every enabled set is a subset of the agents, so
  // bounding the agent count makes branch_index_t truncation structurally
  // impossible everywhere downstream.
  if (request.homes.size() >
      static_cast<std::size_t>(std::numeric_limits<branch_index_t>::max())) {
    throw std::invalid_argument(
        "mc::check: agent count exceeds branch_index_t range");
  }
  McOptions opts = options;
  if (request.homes.size() > kMaskAgents) {  // bitmask width
    opts.sleep_sets = false;
  }
  if (request.faults.has_events()) {
    // Crash-stop faults and rewirings are global events the footprint
    // independence relation does not model (a crash at action t is not a
    // local transition two agents can commute around), so sleep sets are
    // unsound across fault boundaries and are forced off. The BFS frontier
    // phase is skipped too — rewiring choice levels exist only in the DFS
    // walk. Dedup stays sound because config_digest folds the live fault
    // state.
    opts.sleep_sets = false;
    opts.frontier_target = 1;
  }
  if (opts.shared_visited && opts.dedup_states) {
    // The shared claim set turns the walk into a closure over the state
    // DAG; the path-dependent sleep sets are unsound against racing claims.
    opts.sleep_sets = false;
  } else {
    opts.shared_visited = false;  // meaningless without dedup
  }
  if (opts.frontier_target == 0) opts.frontier_target = 1;

  const sim::Instance instance = build_instance(request);
  // One immutable oracle for the whole walk, shared by the root explorer
  // and every worker shard (check_goal/check_action are const and
  // stateless).
  const std::unique_ptr<sim::GoalOracle> oracle =
      core::make_goal_oracle(request.algorithm, request.problem);
  const std::size_t budget =
      opts.budget_actions == 0 ? kUnlimited : opts.budget_actions;

  std::unique_ptr<LockFreeVisitedSet> shared;
  std::atomic<std::size_t> shared_actions{0};
  std::atomic<bool> shared_stop{false};
  if (opts.shared_visited) {
    const std::size_t capacity = opts.shared_visited_capacity != 0
                                     ? opts.shared_visited_capacity
                                     : (std::size_t{1} << 22);
    shared = std::make_unique<LockFreeVisitedSet>(capacity);
  }
  LockFreeVisitedSet* shared_ptr = shared.get();
  std::atomic<std::size_t>* actions_ptr =
      opts.shared_visited ? &shared_actions : nullptr;
  std::atomic<bool>* stop_ptr = opts.shared_visited ? &shared_stop : nullptr;

  ModelCheckReport report;

  // ---- frontier phase (serial, deterministic) -------------------------------
  core::RunContext root_context;
  Explorer root(instance, *oracle, opts, root_context.state(), budget, {},
                shared_ptr, actions_ptr, stop_ptr);
  std::vector<ShardNode> level = {{{}, 0}};
  bool resolved_in_bfs = false;
  if (opts.frontier_target > 1) {
    std::vector<ShardNode> next;
    while (level.size() < opts.frontier_target && !root.violation &&
           !root.budget_stop) {
      next.clear();
      root.expand_level(level, next);
      level.swap(next);
      if (level.empty()) {  // the whole tree fit above the frontier
        resolved_in_bfs = true;
        break;
      }
    }
  }
  report.stats = root.stats;
  std::optional<std::pair<std::vector<branch_index_t>, std::string>> violation =
      root.violation;
  bool budget_stop = root.budget_stop;

  // ---- shard phase ----------------------------------------------------------
  if (!violation && !budget_stop && !resolved_in_bfs) {
    const std::vector<ShardNode> shards = std::move(level);
    report.stats.shards = shards.size();
    // Deterministic budget split: what the frontier phase left, divided
    // across shards (remainder to the first ones). Never depends on workers.
    // In shared mode the budget is global instead — shards meter the one
    // atomic action counter, and the exceeded/not verdict is a function of
    // the closure's total work, not of the racing split.
    std::vector<std::size_t> shard_budget(shards.size(), kUnlimited);
    if (budget != kUnlimited) {
      if (opts.shared_visited) {
        std::fill(shard_budget.begin(), shard_budget.end(), budget);
      } else {
        const std::size_t remaining =
            budget > report.stats.total_actions
                ? budget - report.stats.total_actions
                : 0;
        for (std::size_t i = 0; i < shards.size(); ++i) {
          shard_budget[i] = remaining / shards.size() +
                            (i < remaining % shards.size() ? 1 : 0);
        }
      }
    }

    struct ShardOutcome {
      McStats stats;
      bool budget_stop = false;
      std::optional<std::pair<std::vector<branch_index_t>, std::string>>
          violation;
    };
    std::vector<ShardOutcome> outcomes(shards.size());
    const std::size_t workers = resolve_workers(shards.size(), opts.workers);
    std::vector<std::unique_ptr<core::RunContext>> contexts;
    contexts.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      contexts.push_back(std::make_unique<core::RunContext>());
    }
    // Each shard copies the frontier phase's visited table as its seed:
    // states the frontier already resolved are covered by some shard's
    // subtree, so re-encounters skip (soundness argument in the header).
    // Per-shard tables never cross worker boundaries — determinism like the
    // campaign engine. In shared mode the tables are empty and the claim
    // set carries it all.
    const VisitedMaskTable& seed = root.visited();
    parallel_for_workers(
        shards.size(), workers, [&](std::size_t worker, std::size_t i) {
          Explorer shard(instance, *oracle, opts, contexts[worker]->state(),
                         shard_budget[i], seed, shared_ptr, actions_ptr,
                         stop_ptr);
          shard.dfs(shards[i].prefix, shards[i].sleep);
          outcomes[i] = {shard.stats, shard.budget_stop,
                         std::move(shard.violation)};
        });
    for (const ShardOutcome& outcome : outcomes) {  // index order: determinism
      accumulate(report.stats, outcome.stats);
      budget_stop = budget_stop || outcome.budget_stop;
      if (!violation && outcome.violation) violation = outcome.violation;
    }
  }

  // ---- verdict --------------------------------------------------------------
  if (violation) {
    if (opts.shared_visited) {
      // Which shard reaches a violating state first is a race; the
      // existence of one is not. Re-check without the shared set so the
      // counterexample (and every count) comes from the deterministic tree
      // walk — byte-identical at any worker count.
      McOptions fallback = options;
      fallback.shared_visited = false;
      return check(request, fallback);
    }
    report.ok = false;
    report.complete = false;
    report.verdict = "violation";
    report.failure_reason = violation->second;
    report.counterexample =
        materialize_counterexample(request, violation->first, violation->second);
  } else if (budget_stop) {
    report.ok = true;
    report.complete = false;
    report.verdict = "budget-exhausted";
  } else {
    report.ok = true;
    report.complete = true;
    report.verdict = "verified";
  }
  return report;
}

ModelCheckReport check_with_faults(const CheckRequest& request,
                                   const FaultBudget& budget,
                                   const McOptions& options) {
  const std::size_t horizon = budget.max_fault_action;
  const std::size_t k = request.homes.size();
  const std::size_t node_count =
      request.topology.empty() ? request.node_count : request.topology.size();

  // Materialize the plan space up front (budgets are tiny by design — the
  // product of crash assignments and rewiring-point sets stays in the
  // hundreds). The empty extension comes first in both generators, so the
  // clean plan is always checked first.
  std::vector<std::vector<sim::CrashFault>> crash_sets;
  {
    std::vector<sim::CrashFault> cur;
    const auto gen = [&](auto&& self, std::size_t next_agent) -> void {
      crash_sets.push_back(cur);
      if (cur.size() >= budget.crashes) return;
      for (std::size_t a = next_agent; a < k; ++a) {
        for (std::size_t t = 0; t <= horizon; ++t) {
          cur.push_back(
              sim::CrashFault{static_cast<sim::AgentId>(a), t});
          self(self, a + 1);
          cur.pop_back();
        }
      }
    };
    gen(gen, 0);
  }
  std::vector<std::vector<std::size_t>> rewire_sets = {{}};
  if (sim::rewire_candidate_count(node_count) > 0) {
    std::vector<std::size_t> cur;
    rewire_sets.clear();
    const auto gen = [&](auto&& self, std::size_t next_t) -> void {
      rewire_sets.push_back(cur);
      if (cur.size() >= budget.rewires) return;
      for (std::size_t t = next_t; t <= horizon; ++t) {
        cur.push_back(t);
        self(self, t + 1);
        cur.pop_back();
      }
    };
    gen(gen, 0);
  }

  ModelCheckReport aggregate;
  aggregate.ok = true;
  aggregate.complete = true;
  for (const std::vector<sim::CrashFault>& crashes : crash_sets) {
    for (const std::vector<std::size_t>& rewires : rewire_sets) {
      // Skip extensions that collide with the request's own plan (duplicate
      // crash agents / rewiring points are invalid, not interesting).
      const bool conflict =
          std::any_of(crashes.begin(), crashes.end(),
                      [&](const sim::CrashFault& c) {
                        return std::any_of(
                            request.faults.crashes.begin(),
                            request.faults.crashes.end(),
                            [&](const sim::CrashFault& have) {
                              return have.agent == c.agent;
                            });
                      }) ||
          std::any_of(rewires.begin(), rewires.end(), [&](std::size_t t) {
            return std::find(request.faults.rewire_at.begin(),
                             request.faults.rewire_at.end(),
                             t) != request.faults.rewire_at.end();
          });
      if (conflict) continue;
      CheckRequest sub = request;
      sub.faults.crashes.insert(sub.faults.crashes.end(), crashes.begin(),
                                crashes.end());
      sub.faults.rewire_at.insert(sub.faults.rewire_at.end(), rewires.begin(),
                                  rewires.end());
      sub.faults.normalize();
      const ModelCheckReport sub_report = check(sub, options);
      accumulate(aggregate.stats, sub_report.stats);
      aggregate.stats.shards += sub_report.stats.shards;
      if (!sub_report.ok) {
        aggregate.ok = false;
        aggregate.complete = false;
        aggregate.verdict = sub_report.verdict;
        aggregate.failure_reason = sub_report.failure_reason;
        aggregate.counterexample = sub_report.counterexample;
        return aggregate;
      }
      if (!sub_report.complete) aggregate.complete = false;
    }
  }
  aggregate.verdict = aggregate.complete ? "verified" : "budget-exhausted";
  return aggregate;
}

// ---- campaign integration ---------------------------------------------------

GridReport check_grid(const exp::CampaignGrid& grid, const McOptions& options) {
  // The scheduler axis is what the checker replaces: collapse it so each
  // instance is checked once. Home configurations are scheduler-independent
  // by the campaign's substream contract, so these are byte-for-byte the
  // instances the sampled cells ran.
  exp::CampaignGrid collapsed = grid;
  collapsed.schedulers = {grid.schedulers.empty()
                              ? sim::SchedulerKind::Synchronous
                              : grid.schedulers.front()};
  const std::vector<exp::Scenario> scenarios = exp::expand(collapsed);

  GridReport report;
  report.cells.reserve(scenarios.size());
  for (const exp::Scenario& s : scenarios) {
    GridCell cell;
    cell.algorithm = s.algorithm;
    cell.family = s.family;
    cell.node_count = s.node_count;
    cell.agent_count = s.agent_count;
    cell.symmetry = s.symmetry;
    cell.repetition = s.repetition;
    cell.problem = s.problem;
    cell.homes = exp::scenario_homes(collapsed, s);

    CheckRequest request;
    request.algorithm = s.algorithm;
    request.problem = s.problem;
    request.node_count = s.node_count;
    request.homes = cell.homes;
    request.fault_non_fifo = grid.sim_options.fault_non_fifo_links;
    request.fault_min_phase = grid.sim_options.fault_non_fifo_min_phase;
    request.faults = grid.sim_options.faults;
    request.max_actions = grid.sim_options.max_actions;
    cell.report = check(request, options);

    if (!cell.report.ok) {
      ++report.violations;
    } else if (!cell.report.complete) {
      ++report.budget_exhausted;
    }
    report.cells.push_back(std::move(cell));
  }
  return report;
}

std::uint64_t GridReport::digest() const {
  std::uint64_t state = 0x36c1dc4ec5e7ULL;  // "mc-grid-check" domain
  fold64(state, cells.size());
  for (const GridCell& cell : cells) {
    fold64(state, static_cast<std::uint64_t>(cell.algorithm));
    fold64(state, static_cast<std::uint64_t>(cell.family));
    fold64(state, cell.node_count);
    fold64(state, cell.agent_count);
    fold64(state, cell.symmetry);
    fold64(state, cell.repetition);
    // Folded only for explicit problems: an all-Auto grid's digest is
    // byte-identical to the pre-ProblemSpec engine (pinned baselines).
    if (cell.problem.kind != core::Problem::Auto) {
      fold64(state, static_cast<std::uint64_t>(cell.problem.kind));
      fold64(state, cell.problem.gather_g);
    }
    fold64(state, cell.report.digest());
  }
  fold64(state, violations);
  fold64(state, budget_exhausted);
  return state;
}

Table GridReport::summary_table() const {
  // The "problem" column appears only when some cell names an explicit
  // problem, so all-Auto grids render their historical layout.
  const bool show_problem =
      std::any_of(cells.begin(), cells.end(), [](const GridCell& cell) {
        return cell.problem.kind != core::Problem::Auto;
      });
  std::vector<std::string> headers = {
      "algorithm", "family",    "n",       "k",            "l",
      "rep",       "schedules", "states",  "deduped",      "sleep-pruned",
      "actions",   "verdict"};
  if (show_problem) headers.insert(headers.begin() + 1, "problem");
  Table table(std::move(headers));
  for (const GridCell& cell : cells) {
    const McStats& s = cell.report.stats;
    std::vector<std::string> row = {
        std::string(core::to_string(cell.algorithm)),
        std::string(exp::to_string(cell.family)), Table::num(cell.node_count),
        Table::num(cell.agent_count), Table::num(cell.symmetry),
        Table::num(static_cast<std::size_t>(cell.repetition)),
        Table::num(s.schedules), Table::num(s.states_expanded),
        Table::num(s.states_deduped), Table::num(s.sleep_pruned),
        Table::num(s.total_actions),
        cell.report.complete && cell.report.ok
            ? "verified over all schedules"
            : (cell.report.ok ? "budget" : "VIOLATION")};
    if (show_problem) row.insert(row.begin() + 1, core::to_string(cell.problem));
    table.add_row(std::move(row));
  }
  return table;
}

std::string GridReport::summary() const {
  std::ostringstream out;
  out << summary_table();
  out << "cells: " << cells.size() << "   violations: " << violations
      << "   budget-exhausted: " << budget_exhausted << '\n';
  for (const GridCell& cell : cells) {
    if (cell.report.ok) continue;
    out << "  VIOLATION " << core::to_string(cell.algorithm) << " n="
        << cell.node_count << " k=" << cell.agent_count << ": "
        << cell.report.failure_reason << '\n';
  }
  return out.str();
}

}  // namespace udring::mc
