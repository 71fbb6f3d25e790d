#include "mc/model_check.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "explore/fuzz.h"
#include "sim/checker.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace udring::mc {

namespace {

constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
/// Slots the shard phase reserves at more than one worker when
/// shared_visited_capacity is 0: 2^22 slots, 32 MiB.
constexpr std::size_t kDefaultReserve = std::size_t{1} << 22;
/// The DFS snapshots the configuration of every kSnapshotEvery-th stack
/// frame; a backtrack copies the nearest snapshotted ancestor and re-steps
/// at most kSnapshotEvery - 1 recorded branches. 8 keeps the snapshot stack
/// of a ~200-deep walk at ~25 states.
constexpr std::size_t kSnapshotEvery = 8;

/// A choice-tree node handed from the BFS frontier phase to a DFS shard
/// (or to the next BFS level): the schedule prefix that reaches it and a
/// copy of the configuration there, which the walk starts from.
struct ShardRoot {
  std::vector<branch_index_t> path;
  sim::ExecutionState state;
};

/// What every explorer of one check() shares: the visited store, the budget
/// and the action counter it meters, and the stop flag a violation raises.
struct Walk {
  /// Starts at the set's 64-slot minimum and grows while single_owner.
  LockFreeVisitedSet visited{0};
  std::size_t budget = kUnlimited;
  /// Actions executed so far across all explorers; kept only under a budget.
  std::atomic<std::size_t> actions{0};
  std::atomic<bool> stop{false};
  /// True while one thread drives the walk: only then may the store grow.
  bool single_owner = true;
};

[[nodiscard]] sim::Instance build_instance(const CheckRequest& request) {
  core::RunSpec spec;
  spec.node_count = request.node_count;
  spec.homes = request.homes;
  spec.topology = request.topology;
  spec.problem = request.problem;
  spec.sim_options.record_events = false;  // history is not state; stay lean
  spec.sim_options.max_actions = request.max_actions;
  spec.sim_options.faults = request.faults;
  return core::make_instance(request.algorithm, spec);
}

/// One DFS (or BFS-expansion) engine over one pooled ExecutionState plus its
/// own pool of snapshot states. Not thread-safe; shards own independent
/// Explorers, which share only the Walk.
class Explorer {
 public:
  Explorer(const sim::GoalOracle& oracle, bool dedup,
           sim::ExecutionState& state, Walk& walk)
      : oracle_(oracle), dedup_(dedup), cur_(state), walk_(walk) {}

  McStats stats;
  bool budget_stop = false;
  /// First violation in this explorer's deterministic walk order.
  std::optional<std::pair<std::vector<branch_index_t>, std::string>> violation;

  /// Walks the whole subtree rooted at `root` by iterative DFS. The root
  /// must be an open interior node (C_0, or a node the BFS phase classified
  /// as open).
  void dfs(const ShardRoot& root) {
    if (should_stop()) return;  // another shard already found a violation
    path_ = root.path;
    root_depth_ = root.path.size();
    cur_ = root.state;
    at_tip_ = true;
    std::vector<Frame> stack;
    push_frame(stack, make_frame());

    while (!stack.empty() && !violation && !budget_stop && !should_stop()) {
      Frame& f = stack.back();
      if (f.next_branch == f.branches) {
        pop_frame(stack);
        continue;
      }
      const branch_index_t b = f.next_branch++;
      if (!at_tip_) restore(stack);
      if (descend(f, b) == NodeClass::Open) {
        push_frame(stack, make_frame());
      } else {
        path_.pop_back();
        at_tip_ = false;
      }
    }
  }

  /// Expands every branch of every node of `level` one step, appending
  /// surviving open children to `next` (the BFS frontier phase). Each branch
  /// starts from a copy of its node's state. Stops early on violation or
  /// budget exhaustion.
  void expand_level(const std::vector<ShardRoot>& level,
                    std::vector<ShardRoot>& next) {
    for (const ShardRoot& node : level) {
      if (violation || budget_stop) return;
      path_ = node.path;
      cur_ = node.state;
      const Frame f = make_frame();
      for (branch_index_t b = 0; b < f.branches; ++b) {
        if (violation || budget_stop) return;
        if (b > 0) cur_ = node.state;
        if (descend(f, b) == NodeClass::Open) next.push_back({path_, cur_});
        path_.pop_back();
      }
    }
  }

 private:
  struct Frame {
    std::vector<sim::AgentId> agents;  ///< sorted enabled set at this node
    branch_index_t branches = 0;       ///< agents, or rewiring candidates
    branch_index_t next_branch = 0;    ///< next branch to explore
    bool rewire = false;               ///< branches = rewiring candidate strides
  };

  /// A configuration just stepped into is Open (interior: the caller pushes
  /// a frame / emits a BFS child) or a Leaf.
  enum class NodeClass { Open, Leaf };

  [[nodiscard]] bool should_stop() const noexcept {
    return walk_.stop.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Frame make_frame() {
    ++stats.states_expanded;
    Frame f;
    if (cur_.pending_rewire()) {
      // A pending rewiring is its own choice-tree level: branches are the
      // candidate stride indices.
      f.rewire = true;
      f.branches = static_cast<branch_index_t>(cur_.rewire_candidate_count());
      return f;
    }
    sort_enabled();
    f.agents = sorted_;
    f.branches = static_cast<branch_index_t>(f.agents.size());
    return f;
  }

  /// Pops the exhausted top frame and leaves the parent off its tip.
  void pop_frame(std::vector<Frame>& stack) {
    stack.pop_back();
    if (!stack.empty()) {
      path_.pop_back();
      at_tip_ = false;
    }
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
  /// re-steps the branches path_ recorded below it, and checks the restored
  /// node against its frame (the determinism check).
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
    const Frame& f = stack.back();
    if (f.rewire) {
      if (!cur_.pending_rewire()) {
        throw std::logic_error(
            "mc: rewiring point vanished on snapshot restore "
            "(determinism bug)");
      }
      return;
    }
    sort_enabled();
    if (sorted_ != f.agents) {
      throw std::logic_error(
          "mc: enabled set changed on snapshot restore (determinism bug)");
    }
  }

  void count_actions(std::size_t actions) {
    stats.total_actions += actions;
    if (walk_.budget != kUnlimited) {
      walk_.actions.fetch_add(actions, std::memory_order_relaxed);
    }
  }

  void sort_enabled() {
    sorted_.assign(cur_.enabled().begin(), cur_.enabled().end());
    std::sort(sorted_.begin(), sorted_.end());
  }

  /// Takes branch `b` of frame `f` from the configuration cur_ sits at:
  /// records it on path_, applies it, and classifies the child.
  [[nodiscard]] NodeClass descend(const Frame& f, branch_index_t b) {
    const std::size_t prev_tokens = cur_.total_tokens();
    path_.push_back(b);
    if (f.rewire) {
      // Rewire node: the branch is a candidate stride index, not an agent.
      // Applying it consumes no simulator action — the configuration
      // changes only in its live successor map — so the child classifies
      // like any configuration (dedup folds the fault state).
      cur_.apply_rewire(b);
    } else {
      step(f.agents[b]);
    }
    return classify(prev_tokens);
  }

  void step(sim::AgentId agent) {
    if (!cur_.step_agent(agent)) {
      throw std::logic_error("mc: picked agent not enabled");
    }
    count_actions(1);
    stats.max_depth = std::max(stats.max_depth, path_.size());
  }

  /// Classifies the configuration just stepped into. Everything but an
  /// interior node is a leaf — quiescent schedule, violation, action limit,
  /// budget stop, or a dedup hit. Mirrors the fuzzer's drive_checked
  /// verdicts exactly, so a counterexample replays to the same failure.
  [[nodiscard]] NodeClass classify(std::size_t prev_tokens) {
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
    if (walk_.budget != kUnlimited &&
        walk_.actions.load(std::memory_order_relaxed) >= walk_.budget) {
      budget_stop = true;
      return NodeClass::Leaf;
    }
    if (!dedup_) return NodeClass::Open;
    switch (claim(cur_.config_digest())) {
      case LockFreeVisitedSet::Insert::Claimed:
        return NodeClass::Open;
      case LockFreeVisitedSet::Insert::Present:
        ++stats.states_deduped;
        return NodeClass::Leaf;
      case LockFreeVisitedSet::Insert::Full:
        budget_stop = true;  // reserve too small: degrade, never lie
        return NodeClass::Leaf;
    }
    return NodeClass::Leaf;  // unreachable: the switch covers every answer
  }

  /// Claims `key` in the walk's store. A single owner keeps the load at most
  /// 3/4, which keeps probe runs short, and grows past a Full answer (a
  /// probe run past its bound), so only a multi-worker walk ever sees Full.
  [[nodiscard]] LockFreeVisitedSet::Insert claim(std::uint64_t key) {
    LockFreeVisitedSet& visited = walk_.visited;
    if (!walk_.single_owner) return visited.insert(key);
    if (visited.size() >= visited.capacity() / 4 * 3) visited.grow();
    LockFreeVisitedSet::Insert answer = visited.insert(key);
    while (answer == LockFreeVisitedSet::Insert::Full) {
      visited.grow();
      answer = visited.insert(key);
    }
    return answer;
  }

  void signal_stop() noexcept {
    walk_.stop.store(true, std::memory_order_relaxed);
  }

  const sim::GoalOracle& oracle_;
  const bool dedup_;
  sim::ExecutionState& cur_;
  Walk& walk_;
  std::vector<branch_index_t> path_;
  std::size_t root_depth_ = 0;  ///< path_ length at the DFS root frame
  /// snapshots_[j] = configuration of DFS stack frame j * kSnapshotEvery.
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
  trace.faults = request.faults;
  trace.faults.normalize();
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
  fold64(state, stats.sleep_pruned);  // always 0; keeps the digest layout
  fold64(state, stats.dpor_pruned);   // always 0; keeps the digest layout
  fold64(state, stats.replays);
  fold64(state, stats.total_actions);
  fold64(state, stats.max_depth);
  fold64(state, stats.shards);
}

void accumulate(McStats& into, const McStats& from) {
  into.schedules += from.schedules;
  into.states_expanded += from.states_expanded;
  into.states_deduped += from.states_deduped;
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
  // Validated here, at any worker count, so a bad capacity fails the same
  // way whether or not this walk would ever reserve it.
  const std::size_t reserve = LockFreeVisitedSet::slot_count(
      options.shared_visited_capacity != 0 ? options.shared_visited_capacity
                                           : kDefaultReserve);
  // Fault plans with events skip the BFS frontier phase and walk as one
  // shard rooted at C_0. check_with_faults walks hundreds of tiny plans,
  // and sharding one at more than one worker would make it pay the
  // multi-worker reserve (32 MiB zeroed by default) before its first claim.
  // Dedup stays sound because config_digest folds the live fault state.
  const std::size_t frontier_target =
      request.faults.has_events() ? 1 : std::max<std::size_t>(
                                            options.frontier_target, 1);

  const sim::Instance instance = build_instance(request);
  // One immutable oracle for the whole walk, shared by the root explorer
  // and every worker shard (check_goal/check_action are const and
  // stateless).
  const std::unique_ptr<sim::GoalOracle> oracle =
      core::make_goal_oracle(request.algorithm, request.problem);
  Walk walk;
  walk.budget =
      options.budget_actions == 0 ? kUnlimited : options.budget_actions;

  ModelCheckReport report;

  // ---- frontier phase (serial, deterministic) -------------------------------
  sim::ExecutionState root_state;
  Explorer root(*oracle, options.dedup_states, root_state, walk);
  std::vector<ShardRoot> level(1);
  level.front().state.reset(instance);  // the tree root, C_0
  bool resolved_in_bfs = false;
  if (frontier_target > 1) {
    std::vector<ShardRoot> next;
    while (level.size() < frontier_target && !root.violation &&
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
  std::size_t workers = 1;
  if (!violation && !budget_stop && !resolved_in_bfs) {
    const std::vector<ShardRoot> shards = std::move(level);
    report.stats.shards = shards.size();
    workers = resolve_workers(shards.size(), options.workers);
    if (workers > 1) {
      // The store cannot grow under racing workers: fix its capacity first.
      walk.single_owner = false;
      if (options.dedup_states) walk.visited.reserve(reserve);
    }

    struct ShardOutcome {
      McStats stats;
      bool budget_stop = false;
      std::optional<std::pair<std::vector<branch_index_t>, std::string>>
          violation;
    };
    std::vector<ShardOutcome> outcomes(shards.size());
    std::vector<sim::ExecutionState> states(workers);
    parallel_for_workers(
        shards.size(), workers, [&](std::size_t worker, std::size_t i) {
          Explorer shard(*oracle, options.dedup_states, states[worker], walk);
          shard.dfs(shards[i]);
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
    if (workers > 1) {
      // Which shard reaches a violating state first is a race; the
      // existence of one is not. Re-check at one worker with the same
      // frontier: that walk is deterministic over the one store, so the
      // counterexample and every count are the same at any worker count.
      McOptions serial = options;
      serial.workers = 1;
      return check(request, serial);
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
      "algorithm", "family", "n",       "k",       "l",      "rep",
      "schedules", "states", "deduped", "actions", "verdict"};
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
        Table::num(s.states_deduped), Table::num(s.total_actions),
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
