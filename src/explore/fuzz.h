// udring/explore/fuzz.h
//
// The randomized schedule fuzzer: the test suite's search axis.
//
// One fuzz iteration draws an instance (n, k, homes) and a scheduler from
// the pool, runs the simulator one atomic action at a time under a
// RecordingScheduler, and evaluates check_model_invariants after *every*
// action plus the algorithm's goal oracle at quiescence. Any violation
// yields a replayable ScheduleTrace (hand it to shrink_trace for the
// minimal version). replay_trace is the inverse: deterministically re-runs
// a trace under the same per-action checking and reports the event-log
// digest, so recorded traces are self-verifying artifacts.
//
// run_fuzz shards iterations across the shared worker-pool primitive
// (util::parallel_for_workers) with one pooled sim::ExecutionState per
// worker, so a long fuzz campaign reuses its arenas exactly like a
// measurement campaign, and one sim::EventLogDigester per worker, which
// digests the passing iterations' event logs four at a time (a failing
// iteration is digested at once, for its trace). Iteration i's randomness is
// Rng(base_seed).substream(i) — independent of worker count and execution
// order — and results fold in index order, so a fuzz campaign's digest is
// byte-identical at any parallelism.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/adversary.h"
#include "explore/trace.h"

namespace udring::explore {

/// How the per-action model-invariant oracle runs during checked execution.
/// Full re-walks every node and queue after every action — O(n + k) per
/// action, the exhaustive default. Incremental revalidates only the
/// action's {node, next(node)} footprint against shadow counts
/// (sim::IncrementalInvariantChecker) with a periodic full re-walk as the
/// safety net — O(dirty) per action, which is what makes per-action
/// checking viable at n ≫ 100. Measured with udring_fuzz, one worker, on a
/// 4-vCPU x86-64 VM: at n = 4096, k = 8 (known-k-full, 3 iterations) the
/// incremental run takes ~0.06 s against ~0.67 s for full, ~11×; at the
/// fuzz sizes n 8–24, k 2–6 (known-k-logmem, 5000 iterations) the two are
/// within 5%. Verdicts are equivalent on any violation a single action can
/// introduce (tests/test_checker_incremental.cpp), so the mode changes cost,
/// not coverage, and report digests match across modes.
enum class OracleMode { Full, Incremental };

[[nodiscard]] std::string_view to_string(OracleMode mode) noexcept;

/// Inverse of to_string. Throws std::invalid_argument on an unknown name.
[[nodiscard]] OracleMode oracle_mode_from_name(std::string_view name);

/// Which family of topologies the fuzzer draws instances on. Ring is the
/// paper's model; Tree and Graph draw a random tree / connected graph per
/// iteration and fuzz the algorithm natively on its Euler-tour topology —
/// the §5 embedding path, end to end (the recorded traces stay replayable
/// stand-alone because execution depends only on the virtual ring size).
enum class FuzzTopology { Ring, Tree, Graph };

[[nodiscard]] std::string_view to_string(FuzzTopology topology) noexcept;

/// Inverse of to_string. Throws std::invalid_argument on an unknown name.
[[nodiscard]] FuzzTopology fuzz_topology_from_name(std::string_view name);

/// One drawn instance of a topology family: the virtual ring size, the home
/// configuration, and (for Tree/Graph) the native topology it embeds.
struct DrawnInstance {
  std::size_t node_count = 0;
  std::vector<std::size_t> homes;
  sim::Topology topology;  ///< empty for Ring
};

/// Draws "a random instance of family `topology` with n (underlying) nodes
/// and k agents" — the ONE definition of that draw, shared by the fuzzer,
/// `udring_fuzz --record` and `udring_mc`, so the instance families the
/// three surfaces exercise cannot drift apart. k is clamped to the
/// underlying node count. Deterministic in `rng`.
[[nodiscard]] DrawnInstance draw_instance(FuzzTopology topology, std::size_t n,
                                          std::size_t k, Rng& rng);

struct FuzzOptions {
  core::Algorithm algorithm = core::Algorithm::KnownKFull;
  /// Goal the runs are judged against (core::make_goal_oracle); Auto = the
  /// algorithm's natural problem. Carried into every recorded trace.
  core::ProblemSpec problem;
  /// Topology family instances are drawn on (see FuzzTopology). For Tree
  /// and Graph the node range below sizes the *underlying* network; the
  /// virtual ring is 2(n−1) steps.
  FuzzTopology topology = FuzzTopology::Ring;
  /// Instance size ranges; each iteration draws n then k uniformly.
  std::size_t min_nodes = 8, max_nodes = 24;
  std::size_t min_agents = 2, max_agents = 6;
  /// Point the fuzzer at one fixed instance instead of drawing sizes and
  /// homes (the "search schedules for THIS configuration" mode, e.g.
  /// gen::logmem_stress_homes()). Non-empty = use it; sizes above ignored.
  std::size_t fixed_nodes = 0;
  std::vector<std::size_t> fixed_homes;
  /// Scheduler pool the iteration draws from; empty = all explore kinds.
  std::vector<ExploreSchedulerKind> schedulers;
  /// Fixed fault plan (sim/fault.h) applied verbatim to every iteration —
  /// the test-only non-FIFO relaxation, or the "replay THIS fault scenario
  /// under many schedules" mode.
  sim::FaultPlan faults;
  /// Per-iteration fault budgets: when nonzero, each iteration draws that
  /// many crash faults / rewiring points from its own substream (on top of
  /// `faults`), so a fuzz campaign explores schedules and fault timings
  /// jointly. Zero budgets draw nothing and leave the substream untouched —
  /// budget-free fuzz digests are byte-identical to pre-fault builds.
  std::size_t fault_crash_budget = 0;
  std::size_t fault_rewire_budget = 0;
  /// Per-action invariant oracle (see OracleMode). Full by default;
  /// Incremental for big instances.
  OracleMode oracle = OracleMode::Full;
  /// Incremental oracle's safety-net interval (full re-walk every N
  /// actions; 0 = never).
  std::size_t oracle_full_check_every = 1024;
  /// Per-run action cap; 0 = the simulator's auto limit.
  std::size_t max_actions = 0;
  std::size_t iterations = 100;
  std::uint64_t base_seed = 1;
  /// Worker threads (exp::CampaignOptions::workers semantics).
  std::size_t workers = 0;
  /// Failures kept verbatim in the report (all are counted).
  std::size_t max_recorded_failures = 8;
};

struct FuzzFailure {
  ScheduleTrace trace;     ///< replayable repro (digest + reason filled in)
  std::string reason;      ///< checker verdict / oracle failure / action limit
  std::size_t at_action = 0;  ///< actions executed when the failure surfaced
  std::uint64_t iteration = 0;
};

struct FuzzReport {
  std::size_t iterations = 0;
  std::size_t total_actions = 0;  ///< fuzzer steps across all iterations
  std::size_t failures = 0;
  std::vector<FuzzFailure> failure_samples;  ///< first N, iteration order
  /// Order-sensitive digest over every iteration's outcome; equality at
  /// different worker counts is the determinism contract.
  std::uint64_t digest = 0;
};

/// Outcome of deterministically re-running a trace (see replay_trace).
struct ReplayOutcome {
  bool failed = false;
  std::string reason;
  std::uint64_t digest = 0;   ///< event-log digest at the stopping point
  std::size_t actions = 0;
};

/// One iteration's outcome: the failure (if any) plus the fuzzer step count
/// (every atomic action is one step).
struct FuzzIteration {
  std::optional<FuzzFailure> failure;
  std::size_t actions = 0;
  std::uint64_t digest = 0;  ///< event-log digest of the run (pass or fail)
};

/// Runs fuzz iteration `iteration` of `options`; a failure carries the
/// recorded trace. Deterministic in (options, iteration). `reuse` points at
/// a pooled ExecutionState to run in (run_fuzz passes its per-worker
/// arena); null = a local one-shot state.
[[nodiscard]] FuzzIteration fuzz_iteration(const FuzzOptions& options,
                                           std::uint64_t iteration,
                                           sim::ExecutionState* reuse = nullptr);

/// Runs options.iterations fuzz iterations across the worker pool, one
/// pooled ExecutionState per worker.
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& options);

/// Replays `trace` with per-action invariant checking: steps until
/// quiescence, an invariant violation, or the action limit; at quiescence
/// evaluates the algorithm's goal oracle. Does NOT compare against
/// trace.expected_digest — callers assert that (tests) or refresh it
/// (recording, shrinking). `max_actions` overrides the cap when nonzero;
/// 0 uses trace.max_actions (the cap the trace was recorded under), which
/// is itself 0 (the simulator's auto limit) for most traces. `reuse` as in
/// fuzz_iteration. `oracle` picks the per-action invariant checker; the
/// replayed schedule and event-log digest are mode-independent
/// (tests/test_checker_incremental.cpp replays the whole corpus both ways).
[[nodiscard]] ReplayOutcome replay_trace(const ScheduleTrace& trace,
                                         std::size_t max_actions = 0,
                                         sim::ExecutionState* reuse = nullptr,
                                         OracleMode oracle = OracleMode::Full,
                                         std::size_t full_check_every = 1024);

/// One recording request: the instance, the generating scheduler, and the
/// fault knobs. `topology` empty = the plain ring of node_count (in which
/// case `homes` are ring nodes); non-empty = record natively on it (homes
/// are virtual positions, node_count must equal topology.size()).
struct RecordRequest {
  core::Algorithm algorithm = core::Algorithm::KnownKFull;
  /// Goal oracle selection (Auto = the algorithm's natural problem);
  /// serialized into the trace so replays rebuild the same oracle.
  core::ProblemSpec problem;
  std::size_t node_count = 0;
  std::vector<std::size_t> homes;
  sim::Topology topology;
  ExploreSchedulerKind kind = ExploreSchedulerKind::RoundRobin;
  std::uint64_t seed = 0;
  /// Fault plan for the run (recorded into the trace).
  sim::FaultPlan faults;
  std::size_t max_actions = 0;
  /// Per-action oracle for the recording run (see OracleMode).
  OracleMode oracle = OracleMode::Full;
  std::size_t oracle_full_check_every = 1024;
};

/// Records one complete run of the requested instance and returns the
/// resulting trace with choices, digest and note filled in (the recording
/// path of the record/replay pair; also the corpus generator).
[[nodiscard]] ScheduleTrace record_trace(const RecordRequest& request,
                                         sim::ExecutionState* reuse = nullptr);

}  // namespace udring::explore
