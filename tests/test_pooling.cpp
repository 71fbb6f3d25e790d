// Pooled-reuse regression suite for the Instance × ExecutionState split.
//
// The contract under test: running an instance through *pooled* machinery —
// a reused ExecutionState arena, a cached/reseeded scheduler, a RunContext —
// is byte-identical (event-log digest, metrics, final positions) to running
// it through freshly constructed objects. A scheduler or RNG that carries
// state across ExecutionState::reset() makes reruns correlated;
// BurstScheduler had exactly that bug (its RNG survived reset()), pinned
// here so it cannot return.

#include <gtest/gtest.h>

#include <memory>

#include "core/runner.h"
#include "explore/adversary.h"
#include "exp/campaign.h"
#include "mc/model_check.h"
#include "explore/fuzz.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace udring {
namespace {

core::RunSpec make_spec(std::size_t n, std::size_t k, sim::SchedulerKind kind,
                        std::uint64_t seed) {
  Rng rng(seed);
  core::RunSpec spec;
  spec.node_count = n;
  spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, n, k, 1, rng);
  spec.scheduler = kind;
  spec.seed = seed;
  spec.sim_options.record_events = true;
  return spec;
}

void expect_reports_equal(const core::RunReport& a, const core::RunReport& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.result.actions, b.result.actions);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.max_memory_bits, b.max_memory_bits);
  EXPECT_EQ(a.scheduler_rounds, b.scheduler_rounds);
  EXPECT_EQ(a.moves_by_phase, b.moves_by_phase);
  EXPECT_EQ(a.final_positions, b.final_positions);
  EXPECT_EQ(a.final_labels, b.final_labels);
  EXPECT_EQ(a.failure, b.failure);
}

// ---- pooled RunContext == fresh objects, for every scheduler kind ----------

class PooledRunSweep : public ::testing::TestWithParam<sim::SchedulerKind> {};

TEST_P(PooledRunSweep, BackToBackPooledRunsMatchFreshRuns) {
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::UnknownRelaxed,
        core::Algorithm::GatherRing, core::Algorithm::DisperseRing}) {
    const core::RunSpec first = make_spec(18, 5, GetParam(), 11);
    const core::RunSpec second = make_spec(24, 4, GetParam(), 12);

    // Fresh-object reference executions.
    const core::RunReport fresh_first = core::run_algorithm(algorithm, first);
    const core::RunReport fresh_second = core::run_algorithm(algorithm, second);
    auto fresh_sim = core::make_simulator(algorithm, second);
    auto fresh_sched = sim::make_scheduler(GetParam(), second.seed,
                                           second.homes.size());
    (void)fresh_sim->run(*fresh_sched);
    const std::uint64_t fresh_digest = fresh_sim->log().digest();

    // Pooled: one context, two runs — the second must not see the first.
    core::RunContext ctx;
    const core::RunReport pooled_first = ctx.run(algorithm, first);
    const core::RunReport pooled_second = ctx.run(algorithm, second);
    expect_reports_equal(pooled_first, fresh_first);
    expect_reports_equal(pooled_second, fresh_second);
    EXPECT_EQ(ctx.state().log().digest(), fresh_digest)
        << core::to_string(algorithm) << " under "
        << sim::to_string(GetParam())
        << ": pooled rerun differs from a fresh run";
  }
}

TEST_P(PooledRunSweep, ReusedSchedulerObjectMatchesFreshScheduler) {
  // The same scheduler object drives two executions of the same spec; the
  // second must equal a fresh scheduler's execution. Catches any mutable
  // scheduler state that survives reset() — the BurstScheduler RNG bug.
  const core::RunSpec spec = make_spec(20, 5, GetParam(), 7);
  const auto run_with = [&](sim::Scheduler& sched) {
    auto sim = core::make_simulator(core::Algorithm::KnownKFull, spec);
    (void)sim->run(sched);
    return sim->log().digest();
  };
  auto reused = sim::make_scheduler(GetParam(), spec.seed, spec.homes.size());
  const std::uint64_t first = run_with(*reused);
  const std::uint64_t rerun = run_with(*reused);
  auto fresh = sim::make_scheduler(GetParam(), spec.seed, spec.homes.size());
  const std::uint64_t reference = run_with(*fresh);
  EXPECT_EQ(first, reference);
  EXPECT_EQ(rerun, reference)
      << sim::to_string(GetParam())
      << " carries state across reset(): pooled reruns are correlated";
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PooledRunSweep,
                         ::testing::ValuesIn(sim::all_scheduler_kinds()),
                         [](const auto& info) {
                           std::string name(sim::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SchedulerPooling, BurstSchedulerReseedsItsRngOnReset) {
  // Direct regression for the audit finding: pick sequences after a second
  // reset() must replay the first run's sequence exactly.
  sim::BurstScheduler scheduler(42);
  const std::vector<sim::AgentId> enabled = {0, 1, 2, 3, 4};
  scheduler.reset(5);
  std::vector<sim::AgentId> first;
  for (int i = 0; i < 4; ++i) {
    first.push_back(scheduler.pick(enabled));
    scheduler.reset(5);  // force a re-draw every pick
  }
  scheduler.reset(5);
  std::vector<sim::AgentId> second;
  for (int i = 0; i < 4; ++i) {
    second.push_back(scheduler.pick(enabled));
    scheduler.reset(5);
  }
  EXPECT_EQ(first, second);
}

TEST(SchedulerPooling, DefaultPriorityMatchesExplicitDescendingOrder) {
  const core::RunSpec spec = make_spec(16, 4, sim::SchedulerKind::Priority, 3);
  const auto digest_with = [&](sim::Scheduler& sched) {
    auto sim = core::make_simulator(core::Algorithm::KnownKFull, spec);
    (void)sim->run(sched);
    return sim->log().digest();
  };
  sim::PriorityScheduler pooled_form;  // order derived at reset()
  sim::PriorityScheduler explicit_form({3, 2, 1, 0});
  EXPECT_EQ(digest_with(pooled_form), digest_with(explicit_form));
}

// ---- ExecutionState::reset across sizes -------------------------------------

TEST(ExecutionStatePooling, ResetAcrossSizesMatchesFreshConstruction) {
  const auto factory = core::make_program_factory(core::Algorithm::KnownKFull, 3);
  const auto factory_big =
      core::make_program_factory(core::Algorithm::KnownKFull, 6);
  sim::SimOptions options;
  options.record_events = true;
  const sim::Instance big(40, {0, 7, 14, 21, 28, 35}, factory_big, options);
  const sim::Instance small(9, {0, 3, 6}, factory, options);

  sim::ExecutionState pooled;
  sim::RoundRobinScheduler scheduler;
  // big → small → big: shrinking and regrowing must not leak state.
  for (const sim::Instance* instance : {&big, &small, &big}) {
    pooled.reset(*instance);
    (void)pooled.run(scheduler);
    sim::ExecutionState fresh;
    fresh.reset(*instance);
    sim::RoundRobinScheduler fresh_scheduler;
    (void)fresh.run(fresh_scheduler);
    EXPECT_EQ(pooled.log().digest(), fresh.log().digest());
    EXPECT_EQ(pooled.staying_nodes(), fresh.staying_nodes());
    EXPECT_EQ(pooled.metrics().total_moves(), fresh.metrics().total_moves());
    EXPECT_EQ(pooled.total_tokens(), fresh.total_tokens());
  }
}

TEST(ExecutionStatePooling, DefaultConstructedStateIsUnboundUntilReset) {
  sim::ExecutionState state;
  EXPECT_FALSE(state.bound());
  EXPECT_EQ(state.agent_count(), 0u);
  EXPECT_TRUE(state.quiescent());
  const sim::Instance instance(
      8, {0, 4}, core::make_program_factory(core::Algorithm::KnownKFull, 2));
  state.reset(instance);
  EXPECT_TRUE(state.bound());
  EXPECT_EQ(state.agent_count(), 2u);
  EXPECT_EQ(state.enabled().size(), 2u);
}

// ---- pooled mc explorer walks -----------------------------------------------

TEST(McPooling, InterleavedChecksAreByteIdenticalToIsolatedOnes) {
  // mc::check reuses one pooled ExecutionState per worker across ALL of that
  // worker's shards (thousands of reset()+replay cycles on the same arena).
  // Any state that survives reset() — a stale mailbox, token count, queue
  // arrival stamp — would skew digests and change dedup behaviour. Pin:
  // checking A, then a differently-shaped B, then A again yields
  // byte-identical reports for both A runs, equal to a first-call report.
  const auto request = [](std::size_t n, std::vector<std::size_t> homes) {
    mc::CheckRequest r;
    r.algorithm = core::Algorithm::KnownKFull;
    r.node_count = n;
    r.homes = std::move(homes);
    return r;
  };
  mc::McOptions options;
  options.frontier_target = 6;  // force the sharded path: real shard reuse
  options.workers = 2;
  const mc::ModelCheckReport first = mc::check(request(8, {0, 3, 6}), options);
  const mc::ModelCheckReport other = mc::check(request(10, {0, 5}), options);
  const mc::ModelCheckReport again = mc::check(request(8, {0, 3, 6}), options);
  EXPECT_TRUE(first.ok);
  EXPECT_TRUE(other.ok);
  EXPECT_EQ(first.digest(), again.digest());
  EXPECT_EQ(first.stats.states_expanded, again.stats.states_expanded);
  EXPECT_EQ(first.stats.states_deduped, again.stats.states_deduped);
  EXPECT_EQ(first.stats.sleep_pruned, again.stats.sleep_pruned);
  EXPECT_EQ(first.stats.dpor_pruned, again.stats.dpor_pruned);
  EXPECT_EQ(first.stats.total_actions, again.stats.total_actions);
}

// ---- pooled explore schedulers: the reseed contract -------------------------

class PooledReseedSweep
    : public ::testing::TestWithParam<explore::ExploreSchedulerKind> {};

TEST_P(PooledReseedSweep, PooledSchedulerMatchesFreshPerScenario) {
  // The pooled-scheduler contract RunContext::scheduler relies on: ONE
  // scheduler object reused across scenarios — reseed(seed) and then
  // ExecutionState::run, which attaches and resets it — is byte-identical to
  // constructing a fresh make_explore_scheduler for each scenario, for
  // every kind.
  const core::RunSpec specs[] = {make_spec(18, 5, sim::SchedulerKind::RoundRobin, 21),
                                 make_spec(24, 4, sim::SchedulerKind::RoundRobin, 22),
                                 make_spec(16, 3, sim::SchedulerKind::RoundRobin, 23)};

  // Pooled: one scheduler, one state, reused across all scenarios.
  std::unique_ptr<sim::Scheduler> pooled = explore::make_explore_scheduler(
      GetParam(), specs[0].seed, specs[0].homes.size());
  sim::ExecutionState pooled_state;

  for (const core::RunSpec& spec : specs) {
    const sim::Instance pooled_instance =
        core::make_instance(core::Algorithm::KnownKFull, spec);
    pooled_state.reset(pooled_instance);
    pooled->reseed(spec.seed);
    const sim::RunResult pooled_result = pooled_state.run(*pooled);

    // Fresh per-scenario reference: new scheduler, new state, plain run().
    auto fresh = explore::make_explore_scheduler(GetParam(), spec.seed,
                                                 spec.homes.size());
    const sim::Instance fresh_instance =
        core::make_instance(core::Algorithm::KnownKFull, spec);
    sim::ExecutionState fresh_state;
    fresh_state.reset(fresh_instance);
    const sim::RunResult fresh_result = fresh_state.run(*fresh);

    EXPECT_TRUE(fresh_result.quiescent());
    EXPECT_EQ(pooled_result.actions, fresh_result.actions);
    EXPECT_EQ(pooled_state.log().digest(), fresh_state.log().digest())
        << explore::to_string(GetParam()) << " n=" << spec.node_count
        << ": pooled reseed differs from a fresh scheduler";
    EXPECT_EQ(pooled_state.staying_nodes(), fresh_state.staying_nodes());
    EXPECT_EQ(pooled_state.metrics().total_moves(),
              fresh_state.metrics().total_moves());
  }
}

INSTANTIATE_TEST_SUITE_P(AllExploreKinds, PooledReseedSweep,
                         ::testing::ValuesIn(explore::all_explore_scheduler_kinds()),
                         [](const auto& info) {
                           std::string name(explore::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- pooled fuzz iterations -------------------------------------------------

TEST(FuzzPooling, PooledIterationMatchesOneShot) {
  explore::FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKFull;
  options.iterations = 6;
  options.base_seed = 5;
  sim::ExecutionState reuse;
  for (std::uint64_t i = 0; i < options.iterations; ++i) {
    const explore::FuzzIteration one_shot = explore::fuzz_iteration(options, i);
    const explore::FuzzIteration pooled =
        explore::fuzz_iteration(options, i, &reuse);
    EXPECT_EQ(pooled.digest, one_shot.digest) << "iteration " << i;
    EXPECT_EQ(pooled.actions, one_shot.actions);
    EXPECT_EQ(pooled.failure.has_value(), one_shot.failure.has_value());
  }
}

}  // namespace
}  // namespace udring
