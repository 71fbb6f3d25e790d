// Incremental-vs-full invariant checker equivalence.
//
// The incremental oracle (sim::IncrementalInvariantChecker) revalidates only
// the last action's {node, next(node)} footprint; the full checker re-walks
// every node and queue. On anything a single legal-or-faulted atomic action
// can produce, the two must return the SAME verdict with the SAME reason
// wording — this file fuzzes that equivalence over random schedules of the
// real algorithms, replays the whole tests/schedules/ regression corpus
// (including the planted non-FIFO double-booked-base-node violation, which
// must still be caught with its reason prefix intact) under both oracles,
// and pins the safety-net / reason-parity behaviours directly.
//
// The incremental oracle is sound only while every action touches nodes
// inside its pre-action pair {agent_node(a), live_next(agent_node(a))}:
// ExecutionState::last_action_nodes() must never leave it. That bound is
// checked on every action of a run of each algorithm, and of a run under a
// crash + rewiring fault plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "config/generators.h"
#include "core/known_k_logmem.h"
#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/fuzz.h"
#include "explore/trace.h"
#include "sim/checker.h"
#include "sim/execution_state.h"
#include "sim/fault.h"
#include "util/rng.h"

namespace udring {
namespace {

// ---- per-action equivalence along real executions ---------------------------

/// Steps `sim` to quiescence under `scheduler`, asserting after every action
/// that the incremental checker returns exactly the full checker's verdict.
void assert_equivalent_along_run(sim::Simulator& sim, sim::Scheduler& scheduler,
                                 std::size_t max_steps = 100'000) {
  sim::IncrementalInvariantChecker incremental;
  std::size_t min_tokens = sim.total_tokens();
  ASSERT_TRUE(incremental.reset(sim, min_tokens).ok);
  std::size_t steps = 0;
  while (sim.step(scheduler) && steps < max_steps) {
    const sim::CheckResult full = sim::check_model_invariants(sim, min_tokens);
    const sim::CheckResult fast = incremental.check_after_action(sim, min_tokens);
    ASSERT_EQ(full.ok, fast.ok)
        << "verdicts differ at action " << sim.actions_executed()
        << ": full='" << full.reason << "' incremental='" << fast.reason << "'";
    ASSERT_EQ(full.reason, fast.reason);
    min_tokens = sim.total_tokens();
    ++steps;
  }
}

TEST(IncrementalChecker, EquivalentAlongRandomSchedulesOfRealAlgorithms) {
  Rng rng(2026);
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem,
        core::Algorithm::UnknownRelaxed}) {
    for (int trial = 0; trial < 5; ++trial) {
      const std::size_t k = 2 + rng.index(4);
      const std::size_t n = 12 + rng.index(30);
      core::RunSpec spec;
      spec.node_count = n;
      spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, n, k, 1, rng);
      auto sim = core::make_simulator(algorithm, spec);
      sim::RandomScheduler scheduler(rng());
      scheduler.attach(*sim);
      scheduler.reset(k);
      assert_equivalent_along_run(*sim, scheduler);
      EXPECT_TRUE(sim->quiescent());
    }
  }
}

TEST(IncrementalChecker, EquivalentUnderNonFifoFaultQueueJumping) {
  // The fault path mutates queues by mid-queue removal; the shadow diff must
  // track it action for action.
  Rng rng(2027);
  for (int trial = 0; trial < 10; ++trial) {
    core::RunSpec spec;
    spec.node_count = gen::kLogmemStressNodes;
    spec.homes = gen::logmem_stress_homes();
    spec.sim_options.faults.non_fifo = true;
    spec.sim_options.faults.non_fifo_min_phase =
        core::KnownKLogMemAgent::kDeployment;
    auto sim = core::make_simulator(core::Algorithm::KnownKLogMemStrict, spec);
    sim::RandomScheduler scheduler(rng());
    scheduler.attach(*sim);
    scheduler.reset(spec.homes.size());
    assert_equivalent_along_run(*sim, scheduler);
  }
}

// ---- the footprint bound the incremental oracle rests on --------------------

/// Steps `state` (already reset) to quiescence, or `max_steps`, picking
/// agents and rewiring strides at random, and checks after every action
/// that last_action_nodes() lies inside the acting agent's pre-action pair
/// {agent_node(a), live_next(agent_node(a))}. Returns the actions checked.
std::size_t expect_actions_inside_footprint(sim::ExecutionState& state,
                                            Rng& rng,
                                            std::size_t max_steps = 10'000) {
  std::vector<sim::AgentId> enabled;
  std::size_t actions = 0;
  while (!state.enabled().empty() && actions < max_steps) {
    if (state.pending_rewire()) {
      state.apply_rewire(rng.index(state.rewire_candidate_count()));
    }
    enabled.assign(state.enabled().begin(), state.enabled().end());
    const sim::AgentId agent = enabled[rng.index(enabled.size())];
    const sim::NodeId node = state.agent_node(agent);
    const sim::NodeId next = state.live_next(node);
    if (!state.step_agent(agent)) {
      ADD_FAILURE() << "enabled agent " << agent << " did not step";
      return actions;
    }
    ++actions;
    for (const sim::NodeId touched : state.last_action_nodes()) {
      if (touched != node && touched != next) {
        ADD_FAILURE() << "action " << actions << " by agent " << agent
                      << " touched node " << touched << " outside {" << node
                      << ", " << next << "}";
        return actions;
      }
    }
  }
  return actions;
}

TEST(FootprintBound, EveryActionOfEveryAlgorithmStaysInsideItsPair) {
  Rng rng(2028);
  for (const core::Algorithm algorithm : explore::all_algorithms()) {
    const explore::DrawnInstance drawn =
        explore::draw_instance(explore::FuzzTopology::Ring, 12, 4, rng);
    core::RunSpec spec;
    spec.node_count = drawn.node_count;
    spec.homes = drawn.homes;
    const sim::Instance instance = core::make_instance(algorithm, spec);
    sim::ExecutionState state;
    state.reset(instance);
    EXPECT_GT(expect_actions_inside_footprint(state, rng), 0u)
        << core::to_string(algorithm);
    EXPECT_TRUE(state.enabled().empty())
        << core::to_string(algorithm) << " did not reach quiescence";
  }
}

TEST(FootprintBound, HoldsAcrossCrashAndRewiring) {
  // A rewiring moves live_next off the topology's successor, so the pair
  // must be taken on the live ring; a crash removes an agent mid-run.
  constexpr std::size_t kNodes = 12;
  ASSERT_GT(sim::rewire_candidate_count(kNodes), 0u);
  core::RunSpec spec;
  spec.node_count = kNodes;
  spec.homes = {0, 3, 5, 9};
  spec.sim_options.faults.crashes = {sim::CrashFault{1, 6}};
  spec.sim_options.faults.rewire_at = {4, 15};
  spec.sim_options.faults.normalize();
  const sim::Instance instance =
      core::make_instance(core::Algorithm::KnownKFull, spec);
  sim::ExecutionState state;
  state.reset(instance);
  Rng rng(2029);
  EXPECT_GT(expect_actions_inside_footprint(state, rng), 15u);
  EXPECT_EQ(state.rewires_applied(), 2u);
  EXPECT_EQ(state.status(1), sim::AgentStatus::Crashed);
}

// ---- corpus replay under both oracles ---------------------------------------

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(UDRING_SCHEDULES_DIR)) {
    if (entry.path().extension() == ".trace") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

explore::ScheduleTrace load(const std::filesystem::path& file) {
  std::ifstream in(file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return explore::ScheduleTrace::parse(buffer.str());
}

TEST(IncrementalChecker, CorpusReplaysIdenticallyUnderBothOracles) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 7u);
  bool planted_violation_seen = false;
  for (const auto& file : files) {
    const explore::ScheduleTrace trace = load(file);
    const explore::ReplayOutcome full = explore::replay_trace(trace);
    const explore::ReplayOutcome fast = explore::replay_trace(
        trace, /*max_actions=*/0, /*reuse=*/nullptr,
        explore::OracleMode::Incremental);
    EXPECT_EQ(fast.failed, full.failed) << file;
    EXPECT_EQ(fast.reason, full.reason) << file;
    EXPECT_EQ(fast.digest, full.digest) << file;
    EXPECT_EQ(fast.actions, full.actions) << file;
    EXPECT_EQ(fast.digest, trace.expected_digest) << file;
    if (trace.note.rfind("goal: ", 0) == 0) {
      // The planted double-booked-base-node violation: both oracles must
      // keep catching it with the exact reason prefix the corpus recorded.
      planted_violation_seen = true;
      EXPECT_TRUE(fast.failed) << file;
      EXPECT_EQ(fast.reason.rfind("goal: two agents share node", 0), 0u)
          << file << ": " << fast.reason;
    }
  }
  EXPECT_TRUE(planted_violation_seen)
      << "corpus no longer contains the planted base-node violation";
}

TEST(IncrementalChecker, FaultedFuzzReportIsOracleModeInvariant) {
  // The seeded-bug hunt (test_explore's acceptance instance): same
  // iterations, same seeds, only the oracle differs — the report digest,
  // failure count and first reason must be identical, and the violation's
  // reason prefix unchanged.
  explore::FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKLogMemStrict;
  options.faults.non_fifo = true;
  options.faults.non_fifo_min_phase = core::KnownKLogMemAgent::kDeployment;
  options.fixed_nodes = gen::kLogmemStressNodes;
  options.fixed_homes = gen::logmem_stress_homes();
  options.schedulers = {explore::ExploreSchedulerKind::LinkDelay};
  options.iterations = 20;
  options.base_seed = 2024;

  const explore::FuzzReport full = explore::run_fuzz(options);
  options.oracle = explore::OracleMode::Incremental;
  const explore::FuzzReport fast = explore::run_fuzz(options);

  EXPECT_GT(full.failures, 0u) << "seeded bug not found within the budget";
  EXPECT_EQ(fast.failures, full.failures);
  EXPECT_EQ(fast.digest, full.digest);
  EXPECT_EQ(fast.total_actions, full.total_actions);
  ASSERT_FALSE(fast.failure_samples.empty());
  EXPECT_EQ(fast.failure_samples.front().reason,
            full.failure_samples.front().reason);
  EXPECT_EQ(fast.failure_samples.front().reason.rfind(
                "goal: two agents share node", 0),
            0u)
      << fast.failure_samples.front().reason;
}

// ---- direct behaviours ------------------------------------------------------

TEST(IncrementalChecker, TokenDecreaseFailsWithSameReasonPrefix) {
  Rng rng(31);
  core::RunSpec spec;
  spec.node_count = 16;
  spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, 16, 3, 1, rng);
  auto sim = core::make_simulator(core::Algorithm::KnownKFull, spec);

  sim::IncrementalInvariantChecker checker;
  // A fresh run has zero tokens; claiming 5 must trip monotonicity in both
  // the adopting reset and the per-action check, with the full checker's
  // exact wording.
  const sim::CheckResult at_reset = checker.reset(*sim, 5);
  EXPECT_FALSE(at_reset.ok);
  EXPECT_EQ(at_reset.reason.rfind("token count decreased", 0), 0u)
      << at_reset.reason;
  EXPECT_EQ(at_reset.reason, sim::check_model_invariants(*sim, 5).reason);

  ASSERT_TRUE(checker.reset(*sim, 0).ok);
  sim::RoundRobinScheduler scheduler;
  scheduler.attach(*sim);
  scheduler.reset(3);
  ASSERT_TRUE(sim->step(scheduler));
  const sim::CheckResult after = checker.check_after_action(*sim, 5);
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.reason, sim::check_model_invariants(*sim, 5).reason);
}

TEST(IncrementalChecker, PeriodicFullCheckRunsOnSchedule) {
  Rng rng(32);
  core::RunSpec spec;
  spec.node_count = 24;
  spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, 24, 4, 1, rng);
  auto sim = core::make_simulator(core::Algorithm::KnownKFull, spec);

  sim::IncrementalInvariantChecker checker(
      sim::IncrementalInvariantChecker::Options{.full_check_every = 4});
  ASSERT_TRUE(checker.reset(*sim, 0).ok);
  sim::RoundRobinScheduler scheduler;
  scheduler.attach(*sim);
  scheduler.reset(4);
  std::size_t actions = 0;
  while (actions < 22 && sim->step(scheduler)) {
    ASSERT_TRUE(checker.check_after_action(*sim, 0).ok);
    ++actions;
  }
  ASSERT_EQ(actions, 22u);
  EXPECT_EQ(checker.full_checks(), 22u / 4u);

  // full_check_every = 0 disables the net entirely.
  sim::IncrementalInvariantChecker pure(
      sim::IncrementalInvariantChecker::Options{.full_check_every = 0});
  ASSERT_TRUE(pure.reset(*sim, 0).ok);
  while (sim->step(scheduler)) {
    ASSERT_TRUE(pure.check_after_action(*sim, 0).ok);
  }
  EXPECT_EQ(pure.full_checks(), 0u);
}

TEST(IncrementalChecker, PooledReuseAcrossInstancesMatchesFresh) {
  // One checker object reset across different instances (the run_fuzz
  // worker shape) must behave exactly like a fresh checker per run.
  Rng rng(33);
  sim::IncrementalInvariantChecker pooled;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t k = 2 + rng.index(3);
    const std::size_t n = 8 + rng.index(40);  // sizes shrink and grow
    core::RunSpec spec;
    spec.node_count = n;
    spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, n, k, 1, rng);
    auto sim = core::make_simulator(core::Algorithm::KnownKFull, spec);
    ASSERT_TRUE(pooled.reset(*sim, 0).ok);
    sim::RandomScheduler scheduler(rng());
    scheduler.attach(*sim);
    scheduler.reset(k);
    std::size_t min_tokens = sim->total_tokens();
    while (sim->step(scheduler)) {
      const sim::CheckResult verdict =
          pooled.check_after_action(*sim, min_tokens);
      ASSERT_TRUE(verdict.ok) << verdict.reason;
      min_tokens = sim->total_tokens();
    }
    EXPECT_TRUE(sim->quiescent());
  }
}

}  // namespace
}  // namespace udring
