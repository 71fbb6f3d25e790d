// udring/mc/model_check.h
//
// Exhaustive stateful model checking over the replay choice tree.
//
// The paper's correctness claims are quantified over *every* asynchronous
// schedule; the fuzzer (src/explore) samples that quantifier, this subsystem
// discharges it for small instances. The object being walked is the exact
// choice tree the sorted-enabled-index trace encoding defines: a node is a
// reachable configuration C = (S, T, M, P, Q), its out-edges are the indices
// 0..|enabled|-1 into the sorted enabled set, and every root-to-leaf path IS
// a ScheduleTrace — so a violating path is immediately a replayable artifact
// for `udring_fuzz --replay` and shrink_trace, and "verified" means every
// schedule of the instance was executed (modulo the dedup below) with
// check_model_invariants after each action and the algorithm's goal oracle
// at quiescence, exactly the fuzzer's per-run verdict.
//
// The walk is an iterative DFS with an explicit prefix stack over a pooled
// sim::ExecutionState: descending one level is one atomic action. Agent
// programs are plain copyable values (sim/agent.h), so the walk is stateful
// in the SimGrid sense: every 8th stack frame keeps a snapshot of its
// configuration, and advancing to a sibling copies the nearest snapshotted
// ancestor back into the working state and re-steps the (at most 7)
// recorded branches below it — about one state copy plus a few actions per
// backtrack, instead of re-executing the whole prefix. Each frame also
// keeps its configuration's config_digest() components
// (sim::DigestComponents), so a restore re-hashes nothing and a descent
// re-hashes only what its one action changed. After every restore
// the node is checked against its frame (the sorted enabled set must equal
// the recorded one; a rewiring node must still be pending) and any mismatch
// is a determinism bug (std::logic_error). Every configuration the walk
// expands is reached by copying a state it already holds: the serial walk
// starts from C_0, and a BFS frontier node or a shard root carries the
// state its parent's branch stepped into. Nothing is re-executed from C_0.
//
// ## The closure
//
// With dedup on (the default) the walk is the closure of the reachable
// configurations: each configuration is expanded once, on every enabled
// branch, and a configuration reached again is a leaf. Dedup keys on
// ExecutionState::config_digest(), which folds per-agent action counts, so
// every path to a configuration has the same length and the state graph is
// a DAG. The reduction is state equivalence alone, which keeps every
// verdict (test_mc.cpp pins dedup on == dedup off on enumerable grids).
// `dedup_states = false` walks the unpruned tree, the reference for those
// grids.
//
// ## One store
//
// Every explorer of one check() — the serial walk, the BFS frontier phase
// and every shard — claims configurations in one util::LockFreeVisitedSet
// (util/visited_set.h): the first arrival at a configuration claims and
// expands it, every later arrival skips it. The set grows only under a
// single owner, so the rule is:
//  - while one thread drives the walk (a serial walk, the BFS phase, a shard
//    phase at one worker), the store starts at 64 slots and doubles as the
//    closure grows; such a walk never reports a full table;
//  - a shard phase at more than one worker first reserves
//    `shared_visited_capacity` slots and then runs at that fixed capacity.
//    If the closure overfills it, the walk degrades to "budget-exhausted",
//    never to a wrong verdict.
//
// ## Parallel mode
//
// Parallel mode is frontier-sharded: a serial BFS expands the tree until a
// level has at least `frontier_target` open nodes (every branch of a node
// steps from a copy of the node's state), each frontier node (its choice
// prefix and its configuration) becomes one shard, and shards run DFS walks
// across util::parallel_for_workers with one pooled ExecutionState per
// worker. A level holds one state copy per open node. The budget meters one
// action counter across the whole walk, and a violation anywhere stops
// every shard.
//
// Determinism survives the racing claims because every reported number is
// a function of the closure itself, not of who claimed what: each reachable
// state is expanded exactly once by whichever shard wins it, each edge out
// of a claimed state is explored exactly once, all paths to a state have
// equal length (depth is a function of the state), and the report folds
// only sums and maxima of those quantities. Verdicts and all counts
// therefore stay byte-identical at any worker count for walks that
// complete; a budget-stopped walk keeps a deterministic verdict but its
// partial counters depend on where the global budget landed. One caveat
// bounds the contract: when the closure's size approaches the reserved
// capacity's fill limit (~7/8), whether some insert observes Full — via the
// racy fill gate or a clustered probe run — depends on the racing claim
// order, so the same instance may report "verified" in one run and
// "budget-exhausted" in another at that boundary. The verdict is never
// wrong, only unstably incomplete; size the reserve so the closure fits
// comfortably under the limit. Which shard reaches a violating state first
// is a race too, so a violation found at more than one worker is re-checked
// at one worker with the same frontier: that walk is deterministic over the
// one store, and its report — counterexample included — is the report at
// every worker count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/trace.h"
#include "sim/topology.h"
#include "util/table.h"

namespace udring::mc {

/// Index into a node's sorted enabled set — the element type of
/// explore::ScheduleTrace::choices. One typedef shared by the DFS stack,
/// the BFS expansion and the shard prefixes so branch arithmetic cannot
/// silently narrow (they formerly mixed std::uint32_t and size_t);
/// mc::check guards the agent count against its range up front, which
/// bounds every enabled-set size.
using branch_index_t = std::uint32_t;
static_assert(
    std::is_same_v<branch_index_t,
                   decltype(explore::ScheduleTrace::choices)::value_type>,
    "branch indices are trace choices; the types must not drift apart");

/// One instance to verify over all schedules: the same coordinates a
/// ScheduleTrace carries, minus the choices (the checker supplies all of
/// them). `topology` empty = the plain ring of node_count.
struct CheckRequest {
  core::Algorithm algorithm = core::Algorithm::KnownKFull;
  /// Goal the instance is verified against (core::make_goal_oracle);
  /// Auto = the algorithm's natural problem. Carried into counterexample
  /// traces so they replay against the same oracle.
  core::ProblemSpec problem;
  std::size_t node_count = 0;
  std::vector<std::size_t> homes;
  sim::Topology topology;
  /// Fault schedule (sim/fault.h) every checked schedule runs under: the
  /// test-only non-FIFO relaxation, crash-stop faults and dynamic-ring
  /// rewiring points. Rewiring points add
  /// *choice-tree levels*: at a pending rewiring the node's branches are
  /// the candidate strides instead of agents, so counterexample traces
  /// carry the adversary's rewiring choices in `choices` and replay through
  /// the ordinary pick_index path. Plans with events walk as one shard
  /// rooted at C_0 whatever `frontier_target` says: check_with_faults walks
  /// many tiny plans, and sharding one at more than one worker would make
  /// it pay the multi-worker reserve. Dedup stays sound because
  /// config_digest folds the live fault state.
  sim::FaultPlan faults;
  /// Per-schedule action cap; 0 = the simulator's auto limit. Hitting it on
  /// any branch is a violation (livelock or broken algorithm), like the
  /// fuzzer's verdict.
  std::size_t max_actions = 0;
};

struct McOptions {
  /// Visited-state deduplication on ExecutionState::config_digest(): the
  /// walk is the closure of the reachable configurations. Off = the unpruned
  /// tree, the reference the pruned == unpruned tests compare against.
  bool dedup_states = true;
  /// Slot count a shard phase at more than one worker reserves in the
  /// visited store before its workers start (0 = auto, currently 2^22 ≈
  /// 32 MiB). The store cannot grow while workers race on it, so overflow
  /// degrades the verdict to "budget-exhausted", never corrupts it — but
  /// near the fill limit WHICH runs overflow is claim-order dependent
  /// (header comment), so size generously for a deterministic
  /// complete/incomplete boundary. A walk one thread drives ignores it and
  /// grows the store instead. A value whose power-of-two slot array
  /// overflows std::size_t is rejected (std::invalid_argument) at any
  /// worker count.
  std::size_t shared_visited_capacity = 0;
  /// Budget on executed simulator actions over the whole walk — every
  /// action it executes: tree edges and snapshot-restore re-steps
  /// (0 = unlimited). Exceeding it yields `complete = false`. With
  /// snapshot restores the closure spends ~11–12 actions per expanded state
  /// (every enabled branch of every configuration; the unpruned n=8 tree
  /// ~2).
  std::size_t budget_actions = 0;
  /// Frontier sharding target: the BFS phase expands until a level has at
  /// least this many open nodes, each of which becomes one DFS shard.
  /// 1 (default) = a single serial walk. The value changes how the work is
  /// cut, never the verdict.
  std::size_t frontier_target = 1;
  /// Worker threads executing shards (resolve_workers semantics; 0 = all
  /// cores). Never affects any reported number of a complete walk.
  std::size_t workers = 1;
};

struct McStats {
  std::size_t schedules = 0;        ///< complete schedules (quiescent or limit leaves)
  std::size_t states_expanded = 0;  ///< choice-tree nodes expanded
  std::size_t states_deduped = 0;   ///< subtrees cut by the visited-state hash
  std::size_t sleep_pruned = 0;     ///< always 0 (no sleep sets); kept in digest()
  std::size_t dpor_pruned = 0;      ///< always 0 (no DPOR); kept in digest()
  std::size_t replays = 0;          ///< always 0 (nothing re-executes from C_0); kept in digest()
  std::size_t total_actions = 0;    ///< simulator actions executed, restore re-steps included
  std::size_t max_depth = 0;        ///< deepest schedule prefix reached
  std::size_t shards = 0;           ///< DFS shards executed (0 = BFS resolved all)
};

struct ModelCheckReport {
  /// True when the closure (or, without dedup, the tree) was walked to
  /// exhaustion within the budget. `ok && complete` is the "verified over all schedules" verdict.
  bool complete = false;
  /// False as soon as any branch violated an invariant, failed its goal
  /// oracle at quiescence, or hit the action limit.
  bool ok = true;
  /// "verified" | "violation" | "budget-exhausted".
  std::string verdict;
  /// The violating branch's reason, in the fuzzer's exact phrasing
  /// ("invariant: …", "goal: …", or the action-limit text).
  std::string failure_reason;
  /// First counterexample in deterministic walk order, as a replayable
  /// trace: digest and note refreshed from its own replay, so
  /// `udring_fuzz --replay` accepts it like any corpus file.
  std::optional<explore::ScheduleTrace> counterexample;
  McStats stats;

  /// Order-sensitive digest of the verdict and every stat; equality across
  /// worker counts is the determinism contract (test_mc.cpp pins it).
  [[nodiscard]] std::uint64_t digest() const;
};

/// Exhaustively verifies one instance. Deterministic in (request, options):
/// worker count affects wall-clock only.
[[nodiscard]] ModelCheckReport check(const CheckRequest& request,
                                     const McOptions& options = {});

/// Bounded fault-budget enumeration for check_with_faults: how many fault
/// events the adversary may inject per plan, and the latest action index a
/// fault event may be scheduled at (the enumeration is over discrete
/// schedule times, so this bounds the plan space).
struct FaultBudget {
  std::size_t crashes = 0;  ///< max crash-stop faults per plan (0 or 1 typical)
  std::size_t rewires = 0;  ///< max dynamic-ring rewiring points per plan
  std::size_t max_fault_action = 8;  ///< latest at_action considered

  [[nodiscard]] bool empty() const noexcept {
    return crashes == 0 && rewires == 0;
  }
};

/// Exhaustively verifies `request` under EVERY fault plan within `budget`
/// (on top of request.faults): the clean plan first, then every crash
/// assignment (agent × time), every rewiring-point set, and their products,
/// in deterministic lexicographic order. Stops at the first violating plan —
/// the returned report's counterexample trace carries that plan, so the
/// artifact replays stand-alone — otherwise aggregates stats across all
/// plans ("verified" only when every plan's walk completed).
[[nodiscard]] ModelCheckReport check_with_faults(const CheckRequest& request,
                                                 const FaultBudget& budget,
                                                 const McOptions& options = {});

// ---- campaign integration ---------------------------------------------------

/// One exhaustively-checked cell of a campaign grid.
struct GridCell {
  core::Algorithm algorithm = core::Algorithm::KnownKFull;
  exp::ConfigFamily family = exp::ConfigFamily::RandomAny;
  std::size_t node_count = 0;
  std::size_t agent_count = 0;
  std::size_t symmetry = 1;
  std::uint64_t repetition = 0;
  std::vector<std::size_t> homes;  ///< the instance actually checked
  ModelCheckReport report;
  /// Goal the cell was verified against (the grid's problem axis). Kept
  /// after the older fields: GridCell may be aggregate-initialized.
  core::ProblemSpec problem;
};

struct GridReport {
  std::vector<GridCell> cells;  ///< grid expansion order
  std::size_t violations = 0;
  std::size_t budget_exhausted = 0;

  /// Every cell verified over all schedules (complete && ok).
  [[nodiscard]] bool all_verified() const noexcept {
    return violations == 0 && budget_exhausted == 0;
  }
  [[nodiscard]] std::uint64_t digest() const;

  /// One row per cell: coordinates, schedule/state/dedup/action counts,
  /// and a "verified over all schedules" / "VIOLATION" / "budget" verdict —
  /// the exhaustive sibling of exp::CampaignResult::summary_table().
  [[nodiscard]] Table summary_table() const;
  [[nodiscard]] std::string summary() const;
};

/// Exhaustively model-checks every instance of `grid` — the same expansion
/// order and substream-derived home configurations the campaign engine
/// samples (exp::scenario_homes), so "verified over all schedules" becomes
/// a grid cell alongside fuzzed/measured cells. The scheduler axis is
/// collapsed (the checker quantifies over every scheduler by construction);
/// grid.sim_options supplies the action cap and the fault plan every cell
/// is checked under. Cells run in expansion order; `options` applies per
/// cell.
[[nodiscard]] GridReport check_grid(const exp::CampaignGrid& grid,
                                    const McOptions& options = {});

}  // namespace udring::mc
