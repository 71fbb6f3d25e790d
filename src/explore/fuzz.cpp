#include "explore/fuzz.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "embed/topology.h"
#include "explore/replay.h"
#include "sim/checker.h"
#include "util/parallel.h"

namespace udring::explore {

std::string_view to_string(OracleMode mode) noexcept {
  switch (mode) {
    case OracleMode::Full: return "full";
    case OracleMode::Incremental: return "incremental";
  }
  return "?";
}

OracleMode oracle_mode_from_name(std::string_view name) {
  for (const OracleMode mode : {OracleMode::Full, OracleMode::Incremental}) {
    if (to_string(mode) == name) return mode;
  }
  throw std::invalid_argument("oracle_mode_from_name: unknown oracle '" +
                              std::string(name) + "'");
}

std::string_view to_string(FuzzTopology topology) noexcept {
  switch (topology) {
    case FuzzTopology::Ring: return "ring";
    case FuzzTopology::Tree: return "tree";
    case FuzzTopology::Graph: return "graph";
  }
  return "?";
}

FuzzTopology fuzz_topology_from_name(std::string_view name) {
  for (const FuzzTopology topology :
       {FuzzTopology::Ring, FuzzTopology::Tree, FuzzTopology::Graph}) {
    if (to_string(topology) == name) return topology;
  }
  throw std::invalid_argument("fuzz_topology_from_name: unknown topology '" +
                              std::string(name) + "'");
}

DrawnInstance draw_instance(FuzzTopology topology, std::size_t n, std::size_t k,
                            Rng& rng) {
  DrawnInstance out;
  const std::size_t agents = std::min(k, n);
  switch (topology) {
    case FuzzTopology::Ring:
      out.node_count = n;
      out.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, n, agents, 1, rng);
      break;
    case FuzzTopology::Tree:
    case FuzzTopology::Graph:
      // Draw the underlying network and embed it: the instance runs natively
      // on the Euler-tour virtual ring; homes are the first tour positions
      // of `agents` distinct underlying nodes (distinct by first-visit).
      out.topology = embed::random_network_topology(
          topology == FuzzTopology::Tree ? embed::RandomNetworkKind::Tree
                                         : embed::RandomNetworkKind::Graph,
          n, rng);
      out.node_count = out.topology.size();
      out.homes = embed::draw_virtual_homes(out.topology, agents, rng);
      break;
  }
  return out;
}

namespace {

/// Steps `sim` to completion under `scheduler` with per-action invariant
/// checking through `oracle` (which also judges the goal at quiescence).
/// Shared by the fuzzing and replay paths so both stop at the same action
/// with the same verdict — that is what makes a failing trace's digest
/// reproducible. The event log stays in `sim` for the caller to digest
/// (out.digest is left 0). `mode` picks the per-action checker: Full re-walks
/// everything each action; Incremental revalidates the action's footprint
/// in O(dirty) (equivalent verdicts — the checks are passive, so the
/// executed schedule and the event-log digest are mode-independent).
ReplayOutcome drive_checked(sim::ExecutionState& sim, sim::Scheduler& scheduler,
                            const sim::GoalOracle& oracle,
                            OracleMode mode = OracleMode::Full,
                            std::size_t full_check_every = 1024) {
  ReplayOutcome out;
  scheduler.attach(sim);
  scheduler.reset(sim.agent_count());
  std::size_t min_tokens = sim.total_tokens();
  const bool incremental = mode == OracleMode::Incremental;
  // One pooled checker per worker thread (run_fuzz workers are threads, so
  // this is exactly the per-worker-arena shape the pooled ExecutionState
  // uses): reset() rebinds it per run reusing the shadow buffers, instead
  // of reallocating O(n) state every fuzz iteration.
  static thread_local sim::IncrementalInvariantChecker checker;
  if (incremental) {
    checker.set_options(
        sim::IncrementalInvariantChecker::Options{.full_check_every =
                                                      full_check_every});
    if (const sim::CheckResult start = checker.reset(sim, min_tokens); !start) {
      out.failed = true;
      out.reason = "invariant: " + start.reason;
      out.actions = sim.actions_executed();
      return out;
    }
  }
  while (sim.step(scheduler)) {
    const sim::CheckResult invariants = oracle.check_action(
        sim, min_tokens, incremental ? &checker : nullptr);
    min_tokens = sim.total_tokens();
    if (!invariants) {
      out.failed = true;
      out.reason = "invariant: " + invariants.reason;
      break;
    }
    if (sim.actions_executed() >= sim.max_actions() && !sim.quiescent()) {
      out.failed = true;
      out.reason = "action limit reached (livelock or broken algorithm)";
      break;
    }
  }
  if (!out.failed && sim.quiescent()) {
    const sim::CheckResult goal = oracle.check_goal(sim);
    if (!goal) {
      out.failed = true;
      out.reason = "goal: " + goal.reason;
    }
  }
  out.actions = sim.actions_executed();
  return out;
}

[[nodiscard]] sim::Instance build_instance(const RecordRequest& request) {
  core::RunSpec spec;
  spec.node_count = request.node_count;
  spec.homes = request.homes;
  spec.topology = request.topology;
  spec.problem = request.problem;
  spec.sim_options.record_events = true;
  spec.sim_options.max_actions = request.max_actions;
  spec.sim_options.faults = request.faults;
  return core::make_instance(request.algorithm, spec);
}

/// record_trace's run: fills `trace` with everything but expected_digest
/// and leaves the run's event log in `state`.
void record_into(const RecordRequest& request, sim::ExecutionState& state,
                 ScheduleTrace& trace) {
  trace.algorithm = request.algorithm;
  trace.node_count = request.topology.empty() ? request.node_count
                                              : request.topology.size();
  trace.homes = request.homes;
  trace.topology = request.topology.empty()
                       ? "ring"
                       : std::string(request.topology.name());
  trace.problem = request.problem;
  trace.generator = std::string(to_string(request.kind));
  trace.seed = request.seed;
  trace.faults = request.faults;
  trace.faults.normalize();
  trace.max_actions = request.max_actions;

  const sim::Instance instance = build_instance(request);
  state.reset(instance);
  RecordingScheduler recorder(
      make_explore_scheduler(request.kind, request.seed, trace.homes.size()));
  const auto goal_oracle =
      core::make_goal_oracle(request.algorithm, request.problem);
  const ReplayOutcome outcome =
      drive_checked(state, recorder, *goal_oracle, request.oracle,
                    request.oracle_full_check_every);
  trace.choices = recorder.choices();
  trace.note = outcome.failed ? outcome.reason : "ok";
}

}  // namespace

ScheduleTrace record_trace(const RecordRequest& request,
                           sim::ExecutionState* reuse) {
  sim::ExecutionState local;
  sim::ExecutionState& state = reuse != nullptr ? *reuse : local;
  ScheduleTrace trace;
  record_into(request, state, trace);
  trace.expected_digest = state.log().digest();
  return trace;
}

ReplayOutcome replay_trace(const ScheduleTrace& trace, std::size_t max_actions,
                           sim::ExecutionState* reuse, OracleMode oracle,
                           std::size_t full_check_every) {
  // Execution depends only on the virtual ring size (labels decorate
  // reports, not semantics), so every trace — ring, tree or graph
  // provenance — replays on the plain ring of its node_count.
  RecordRequest request;
  request.algorithm = trace.algorithm;
  request.problem = trace.problem;
  request.node_count = trace.node_count;
  request.homes = trace.homes;
  request.faults = trace.faults;
  // An explicit cap wins; otherwise the cap the trace was recorded under,
  // so cap-sensitive outcomes ("action limit reached") replay stand-alone.
  request.max_actions = max_actions != 0 ? max_actions : trace.max_actions;
  const sim::Instance instance = build_instance(request);
  sim::ExecutionState local;
  sim::ExecutionState& state = reuse != nullptr ? *reuse : local;
  state.reset(instance);
  ReplayScheduler replayer(trace.choices);
  const auto goal_oracle =
      core::make_goal_oracle(trace.algorithm, trace.problem);
  ReplayOutcome outcome = drive_checked(state, replayer, *goal_oracle, oracle,
                                        full_check_every);
  outcome.digest = state.log().digest();
  return outcome;
}

namespace {

/// fuzz_iteration's body, run in `state` and written into `out`. A passing
/// run's event log goes to `lanes` when given, which writes out.digest later
/// (a submit() or flush()); a failing run's log is digested at once, so its
/// trace carries expected_digest.
void run_iteration(const FuzzOptions& options, std::uint64_t iteration,
                   sim::ExecutionState& state, sim::EventLogDigester* lanes,
                   FuzzIteration& out) {
  Rng rng = Rng(options.base_seed).substream(iteration);

  if (!options.fixed_homes.empty() &&
      options.fixed_nodes < options.fixed_homes.size()) {
    throw std::invalid_argument(
        "fuzz_iteration: fixed_homes requires fixed_nodes >= k");
  }
  if (!options.fixed_homes.empty() && options.topology != FuzzTopology::Ring) {
    // Fixed homes name ring nodes; silently fuzzing a plain ring while the
    // caller asked for tree/graph would be a lie.
    throw std::invalid_argument(
        "fuzz_iteration: fixed_homes only supports --topology=ring");
  }

  RecordRequest request;
  request.algorithm = options.algorithm;
  request.problem = options.problem;
  request.max_actions = options.max_actions;
  request.oracle = options.oracle;
  request.oracle_full_check_every = options.oracle_full_check_every;

  request.node_count = options.fixed_nodes;
  request.homes = options.fixed_homes;
  if (request.homes.empty()) {
    const std::size_t n = static_cast<std::size_t>(rng.between(
        options.min_nodes, std::max(options.min_nodes, options.max_nodes)));
    const std::size_t k_hi =
        std::min(std::max(options.min_agents, options.max_agents), n);
    const std::size_t k = static_cast<std::size_t>(
        rng.between(std::min(options.min_agents, k_hi), k_hi));
    DrawnInstance drawn = draw_instance(options.topology, n, k, rng);
    request.node_count = drawn.node_count;
    request.homes = std::move(drawn.homes);
    request.topology = std::move(drawn.topology);
  }

  const std::vector<ExploreSchedulerKind>& pool =
      options.schedulers.empty() ? all_explore_scheduler_kinds()
                                 : options.schedulers;
  request.kind = pool[rng.index(pool.size())];
  request.seed = rng();

  // Draw this iteration's fault plan last, gated on the budgets: zero
  // budgets consume nothing from the substream, so fault-free fuzz digests
  // are byte-identical to pre-fault builds. Fault times land in a window of
  // ~2 virtual laps so crashes/rewires hit mid-execution, not after
  // quiescence.
  request.faults = options.faults;
  if (options.fault_crash_budget > 0 || options.fault_rewire_budget > 0) {
    const std::size_t k = request.homes.size();
    const std::size_t horizon =
        std::max<std::size_t>(2 * request.node_count * std::max<std::size_t>(k, 1), 8);
    const std::size_t already = request.faults.crashes.size();
    const std::size_t crashes =
        std::min(options.fault_crash_budget, k > already ? k - already : 0);
    for (std::size_t c = 0; c < crashes; ++c) {
      sim::CrashFault crash;
      do {
        crash.agent = static_cast<sim::AgentId>(rng.index(k));
      } while (std::any_of(request.faults.crashes.begin(),
                           request.faults.crashes.end(),
                           [&](const sim::CrashFault& have) {
                             return have.agent == crash.agent;
                           }));
      crash.at_action = 1 + static_cast<std::size_t>(rng.index(horizon));
      request.faults.crashes.push_back(crash);
    }
    const std::size_t rewires =
        sim::rewire_candidate_count(request.node_count) > 0
            ? options.fault_rewire_budget
            : 0;
    for (std::size_t r = 0; r < rewires; ++r) {
      std::size_t at = 0;
      do {
        at = 1 + static_cast<std::size_t>(rng.index(horizon));
      } while (std::find(request.faults.rewire_at.begin(),
                         request.faults.rewire_at.end(),
                         at) != request.faults.rewire_at.end());
      request.faults.rewire_at.push_back(at);
    }
    request.faults.normalize();
  }

  ScheduleTrace trace;
  record_into(request, state, trace);
  // Counted by the state, not the trace: every applied rewiring adds a
  // choice to the trace that is not an action.
  out.actions = state.actions_executed();
  const bool passed = trace.note == "ok";
  if (passed && lanes != nullptr) {
    lanes->submit(state.log(), &out.digest);
    return;
  }
  out.digest = state.log().digest();
  if (passed) return;
  trace.expected_digest = out.digest;
  FuzzFailure failure;
  failure.reason = trace.note;
  failure.at_action = out.actions;
  failure.iteration = iteration;
  failure.trace = std::move(trace);
  out.failure = std::move(failure);
}

}  // namespace

FuzzIteration fuzz_iteration(const FuzzOptions& options,
                             std::uint64_t iteration,
                             sim::ExecutionState* reuse) {
  sim::ExecutionState local;
  FuzzIteration out;
  run_iteration(options, iteration, reuse != nullptr ? *reuse : local,
                nullptr, out);
  return out;
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  report.iterations = options.iterations;

  std::vector<FuzzIteration> slots(options.iterations);
  // One pooled ExecutionState per worker (the same shape as the campaign
  // engine's RunContext pool): arenas recycle across iterations, outputs
  // stay index-owned, so the digest stays worker-count-invariant. Each
  // worker's digester writes the digests of its passing iterations into
  // their slots; the flushes after the join finish them before the fold.
  const std::size_t workers =
      resolve_workers(options.iterations, options.workers);
  std::vector<std::unique_ptr<sim::ExecutionState>> states;
  std::vector<std::unique_ptr<sim::EventLogDigester>> lanes;
  states.reserve(workers);
  lanes.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    states.push_back(std::make_unique<sim::ExecutionState>());
    lanes.push_back(std::make_unique<sim::EventLogDigester>());
  }
  parallel_for_workers(options.iterations, workers,
                       [&](std::size_t worker, std::size_t i) {
                         run_iteration(options, i, *states[worker],
                                       lanes[worker].get(), slots[i]);
                       });
  for (const auto& worker_lanes : lanes) worker_lanes->flush();

  std::uint64_t state = 0xf0220feed5eedULL;  // "fuzz-feed" domain
  fold64(state, options.iterations);
  for (const FuzzIteration& slot : slots) {
    fold64(state, slot.failure ? 1 : 0);
    fold64(state, slot.actions);
    fold64(state, slot.digest);
    if (slot.failure) {
      ++report.failures;
      fold64(state, slot.failure->at_action);
      if (report.failure_samples.size() < options.max_recorded_failures) {
        report.failure_samples.push_back(*slot.failure);
      }
    }
    report.total_actions += slot.actions;
  }
  report.digest = state;
  return report;
}

}  // namespace udring::explore
