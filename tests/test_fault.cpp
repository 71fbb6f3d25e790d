// The structured fault-injection layer (sim/fault.h), end to end.
//
//  - FaultPlan mechanics: normalize/validate/fold, and the stride-ring
//    rewiring candidate geometry (φ(n) candidates, ascending coprime strides,
//    the single-cycle revalidation predicate).
//  - The legacy SimOptions non-FIFO bool pair and the structured plan are the
//    same fault: recording under either produces byte-identical traces.
//  - Canonical trace emission: every corpus file re-serializes to its exact
//    bytes, and the fault keys emit in one sorted order regardless of how the
//    trace object was populated.
//  - Replay determinism of faulty executions: fuzz digests under crash and
//    rewiring budgets are worker-count invariant, and every faulty failure
//    sample survives text round-trip with an identical replay.
//  - The acceptance pipeline: a violation reachable only under a crash fault
//    is found by the fuzzer, shrunk by ddmin, replays byte-identically from
//    its serialized form, and is rediscovered by mc::check under the same
//    plan; mc::check_with_faults verdicts agree across every pruning combo.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "config/generators.h"
#include "explore/fuzz.h"
#include "explore/shrink.h"
#include "explore/trace.h"
#include "mc/model_check.h"
#include "sim/fault.h"
#include "support/state_access.h"

namespace udring {
namespace {

// ---- FaultPlan mechanics ----------------------------------------------------

TEST(FaultPlan, EmptyPlanInjectsNothing) {
  const sim::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.has_events());
  EXPECT_FALSE(plan.has_crashes());
  EXPECT_FALSE(plan.has_rewires());
}

TEST(FaultPlan, NormalizeSortsIntoCanonicalFormIdempotently) {
  sim::FaultPlan plan;
  plan.crashes = {{3, 9}, {2, 4}, {1, 4}};
  plan.rewire_at = {7, 2, 5};
  plan.normalize();
  const std::vector<sim::CrashFault> sorted = {{1, 4}, {2, 4}, {3, 9}};
  EXPECT_EQ(plan.crashes, sorted);
  EXPECT_EQ(plan.rewire_at, (std::vector<std::size_t>{2, 5, 7}));
  const sim::FaultPlan once = plan;
  plan.normalize();
  EXPECT_EQ(plan, once);
}

TEST(FaultPlan, ValidateRejectsMalformedPlans) {
  sim::FaultPlan ok;
  ok.crashes = {{0, 2}, {1, 5}};
  ok.rewire_at = {3};
  ok.normalize();
  EXPECT_NO_THROW(ok.validate(8, 2));

  sim::FaultPlan out_of_range = ok;
  out_of_range.crashes.push_back({2, 1});  // agent 2 of a k = 2 instance
  out_of_range.normalize();
  EXPECT_THROW(out_of_range.validate(8, 2), std::invalid_argument);

  sim::FaultPlan duplicate_agent = ok;
  duplicate_agent.crashes.push_back({0, 7});
  duplicate_agent.normalize();
  EXPECT_THROW(duplicate_agent.validate(8, 2), std::invalid_argument);

  sim::FaultPlan duplicate_rewire = ok;
  duplicate_rewire.rewire_at = {3, 3};
  EXPECT_THROW(duplicate_rewire.validate(8, 2), std::invalid_argument);

  sim::FaultPlan tiny_ring;
  tiny_ring.rewire_at = {1};
  EXPECT_THROW(tiny_ring.validate(1, 1), std::invalid_argument);
}

TEST(FaultPlan, FoldIntoSeparatesDistinctPlans) {
  sim::FaultPlan a;
  a.crashes = {{0, 3}};
  sim::FaultPlan b;
  b.crashes = {{0, 4}};  // one action later: must digest apart
  std::uint64_t state_a = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state_b = state_a;
  std::uint64_t state_a2 = state_a;
  a.fold_into(state_a);
  b.fold_into(state_b);
  a.fold_into(state_a2);
  EXPECT_NE(state_a, state_b);
  EXPECT_EQ(state_a, state_a2);
}

// ---- rewiring candidate geometry --------------------------------------------

TEST(RewireGeometry, CandidateCountIsEulerPhi) {
  EXPECT_EQ(sim::rewire_candidate_count(0), 0u);
  EXPECT_EQ(sim::rewire_candidate_count(1), 0u);
  EXPECT_EQ(sim::rewire_candidate_count(2), 1u);
  EXPECT_EQ(sim::rewire_candidate_count(7), 6u);   // prime: n - 1
  EXPECT_EQ(sim::rewire_candidate_count(8), 4u);   // {1, 3, 5, 7}
  EXPECT_EQ(sim::rewire_candidate_count(12), 4u);  // {1, 5, 7, 11}
}

TEST(RewireGeometry, CandidateStridesAscendAndStayCoprime) {
  const std::vector<std::size_t> eight = {1, 3, 5, 7};
  for (std::size_t i = 0; i < eight.size(); ++i) {
    EXPECT_EQ(sim::rewire_candidate_stride(8, i), eight[i]);
  }
  const std::vector<std::size_t> twelve = {1, 5, 7, 11};
  for (std::size_t i = 0; i < twelve.size(); ++i) {
    EXPECT_EQ(sim::rewire_candidate_stride(12, i), twelve[i]);
  }
  EXPECT_THROW((void)sim::rewire_candidate_stride(8, 4), std::out_of_range);
  EXPECT_THROW((void)sim::rewire_candidate_stride(1, 0), std::out_of_range);
}

TEST(RewireGeometry, SingleCyclePredicateIsExactlyCoprimality) {
  for (std::size_t n = 2; n <= 16; ++n) {
    for (std::size_t d = 0; d <= n; ++d) {
      const bool expected = d >= 1 && d < n && std::gcd(d, n) == 1;
      EXPECT_EQ(sim::is_single_cycle_stride(n, d), expected)
          << "n=" << n << " stride=" << d;
    }
  }
  // Every listed candidate passes its own revalidation.
  for (std::size_t n = 2; n <= 16; ++n) {
    for (std::size_t i = 0; i < sim::rewire_candidate_count(n); ++i) {
      EXPECT_TRUE(
          sim::is_single_cycle_stride(n, sim::rewire_candidate_stride(n, i)));
    }
  }
}

// ---- canonical trace emission -----------------------------------------------

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(UDRING_SCHEDULES_DIR)) {
    if (entry.path().extension() == ".trace") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CanonicalEmission, EveryCorpusTraceReserializesToItsExactBytes) {
  // parse ∘ to_text must be the identity on the corpus: optional keys emit
  // in one canonical sorted order, so no code path that re-writes a trace
  // (shrinking, mc counterexamples, campaign artifacts) can churn the bytes.
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 7u);
  for (const auto& file : files) {
    SCOPED_TRACE(file.filename().string());
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const explore::ScheduleTrace trace =
        explore::ScheduleTrace::parse(buffer.str());
    EXPECT_EQ(trace.to_text(), buffer.str());
  }
}

TEST(CanonicalEmission, FaultKeysEmitIdenticallyFromAnyInsertionPath) {
  explore::ScheduleTrace base;
  base.algorithm = core::Algorithm::KnownKFull;
  base.node_count = 8;
  base.homes = {0, 4};
  base.choices = {0, 1, 0};
  base.expected_digest = 42;
  base.note = "ok";

  sim::FaultPlan plan;
  plan.non_fifo = true;
  plan.non_fifo_min_phase = 1;
  plan.crashes = {{1, 5}, {0, 2}};  // deliberately unsorted
  plan.rewire_at = {9, 3};

  // Path 1: the whole plan at once.
  explore::ScheduleTrace via_plan = base;
  via_plan.faults = plan;

  // Path 2: field by field in another order, lists left unsorted.
  explore::ScheduleTrace via_fields = base;
  via_fields.faults.rewire_at = {9, 3};
  via_fields.faults.crashes = {{1, 5}, {0, 2}};
  via_fields.faults.non_fifo_min_phase = 1;
  via_fields.faults.non_fifo = true;

  EXPECT_EQ(via_plan.to_text(), via_fields.to_text());
  // The non-FIFO relaxation keeps its pre-fault-layer keys and position.
  const std::string text = via_plan.to_text();
  EXPECT_NE(text.find("seed 0\nfault-non-fifo 1\nfault-min-phase 1\n"
                      "fault-crashes 0@2 1@5\n"),
            std::string::npos)
      << text;

  // And the emitted form round-trips to the same plan, normalized.
  const explore::ScheduleTrace reparsed = explore::ScheduleTrace::parse(text);
  sim::FaultPlan expected = plan;
  expected.normalize();
  EXPECT_EQ(reparsed.faults, expected);
  EXPECT_EQ(reparsed.to_text(), text);
}

// ---- the non-FIFO fault's enabled set ---------------------------------------

TEST(NonFifo, EnabledSetIsExactAfterEveryAction) {
  // Under the non-FIFO fault an action re-judges only the agents left in its
  // arrival node's queue. A refresh of every agent of a copy must then find
  // nothing to change, after every action: with overtaking allowed from the
  // first phase (min-phase 0) and from phase 1, under every scheduler kind,
  // on the deployment stress instance and on a drawn ring with longer queues.
  struct Ring {
    std::size_t n;
    std::vector<std::size_t> homes;
  };
  Rng rng(5);
  const Ring rings[] = {{gen::kLogmemStressNodes, gen::logmem_stress_homes()},
                        {40, gen::random_homes(40, 16, rng)}};
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKLogMemStrict, core::Algorithm::KnownKFull,
        core::Algorithm::UnknownRelaxed}) {
    for (const std::size_t min_phase : {0u, 1u}) {
      for (const Ring& ring : rings) {
        core::RunSpec spec;
        spec.node_count = ring.n;
        spec.homes = ring.homes;
        spec.sim_options.faults.non_fifo = true;
        spec.sim_options.faults.non_fifo_min_phase = min_phase;
        const sim::Instance instance = core::make_instance(algorithm, spec);
        const std::size_t k = ring.homes.size();
        for (const explore::ExploreSchedulerKind kind :
             explore::all_explore_scheduler_kinds()) {
          sim::ExecutionState state;
          state.reset(instance);
          const std::unique_ptr<sim::Scheduler> scheduler =
              explore::make_explore_scheduler(kind, 7, k);
          scheduler->attach(state);
          scheduler->reset(k);
          // The first 4,000 actions of each run.
          for (std::size_t step = 0; step < 4000 && state.step(*scheduler);
               ++step) {
            sim::ExecutionState swept = state;
            sim::ExecutionStateTestAccess::refresh_every_agent(swept);
            if (swept.enabled() != state.enabled()) {
              ADD_FAILURE() << core::to_string(algorithm) << " n=" << ring.n
                            << " min-phase=" << min_phase << ' '
                            << explore::to_string(kind) << ": after action "
                            << state.actions_executed();
              break;
            }
          }
        }
      }
    }
  }
}

// ---- replay determinism of faulty executions --------------------------------

explore::FuzzOptions faulty_fuzz_options() {
  explore::FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKFull;
  options.iterations = 24;
  options.min_nodes = 8;
  options.max_nodes = 10;
  options.min_agents = 2;
  options.max_agents = 3;
  options.fault_crash_budget = 1;
  options.fault_rewire_budget = 2;
  options.max_recorded_failures = 4;
  return options;
}

TEST(FaultyReplayDeterminism, FuzzDigestIsWorkerCountInvariant) {
  explore::FuzzOptions options = faulty_fuzz_options();
  options.workers = 1;
  const explore::FuzzReport serial = explore::run_fuzz(options);
  for (const std::size_t workers : {2u, 4u}) {
    options.workers = workers;
    const explore::FuzzReport parallel = explore::run_fuzz(options);
    EXPECT_EQ(parallel.digest, serial.digest) << workers << " workers";
    EXPECT_EQ(parallel.failures, serial.failures);
    EXPECT_EQ(parallel.total_actions, serial.total_actions);
    EXPECT_EQ(parallel.failure_samples.size(), serial.failure_samples.size());
  }
}

TEST(FaultyReplayDeterminism, ActionCountsExcludeRewiringChoices) {
  // An applied rewiring adds a pick_index choice to the trace but executes
  // no action, so a fuzz iteration counts the actions its state executed,
  // and a failure's at_action is the action count its trace replays in.
  const explore::FuzzOptions options = faulty_fuzz_options();
  sim::ExecutionState state;
  std::size_t rewires = 0;
  for (std::uint64_t i = 0; i < options.iterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const explore::FuzzIteration iteration =
        explore::fuzz_iteration(options, i, &state);
    EXPECT_EQ(iteration.actions, state.actions_executed());
    rewires += state.rewires_applied();
    if (!iteration.failure) continue;
    const explore::FuzzFailure& failure = *iteration.failure;
    EXPECT_EQ(failure.at_action, explore::replay_trace(failure.trace).actions);
    EXPECT_EQ(failure.at_action + state.rewires_applied(),
              failure.trace.choices.size());
  }
  EXPECT_GT(rewires, 0u) << "the options must apply rewirings";
}

TEST(FaultyReplayDeterminism, EveryFaultySampleSurvivesTextRoundTrip) {
  const explore::FuzzReport report = explore::run_fuzz(faulty_fuzz_options());
  ASSERT_FALSE(report.failure_samples.empty())
      << "crash+rewire budgets on small instances should surface failures";
  for (const explore::FuzzFailure& failure : report.failure_samples) {
    SCOPED_TRACE("iteration " + std::to_string(failure.iteration));
    const explore::ScheduleTrace reparsed =
        explore::ScheduleTrace::parse(failure.trace.to_text());
    EXPECT_EQ(reparsed.faults, failure.trace.faults);
    const explore::ReplayOutcome once = explore::replay_trace(reparsed);
    const explore::ReplayOutcome twice = explore::replay_trace(reparsed);
    EXPECT_EQ(once.digest, failure.trace.expected_digest);
    EXPECT_TRUE(once.failed);
    EXPECT_EQ(once.digest, twice.digest);
    EXPECT_EQ(once.reason, twice.reason);
  }
}

// ---- the acceptance pipeline ------------------------------------------------

TEST(FaultPipeline, CrashViolationIsFoundShrunkReplayedAndRediscoveredByMc) {
  // One fixed instance the fault-free fuzzer verifies clean, where a single
  // crash fault plants a reachable violation: the fuzzer must find it, ddmin
  // must shrink it jointly with the schedule, the serialized artifact must
  // replay byte-identically, and mc::check under the shrunk trace's own
  // plan must rediscover a violation deterministically.
  explore::FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKFull;
  options.fixed_nodes = 8;
  options.fixed_homes = {0, 4};
  options.iterations = 40;

  const explore::FuzzReport clean = explore::run_fuzz(options);
  EXPECT_EQ(clean.failures, 0u)
      << "control: the instance must be clean without faults";

  options.fault_crash_budget = 1;
  const explore::FuzzReport faulty = explore::run_fuzz(options);
  ASSERT_GT(faulty.failures, 0u);
  ASSERT_FALSE(faulty.failure_samples.empty());
  const explore::ScheduleTrace& found = faulty.failure_samples.front().trace;
  ASSERT_TRUE(found.faults.has_crashes());

  const explore::ShrinkResult shrunk = explore::shrink_trace(found);
  EXPECT_LE(shrunk.trace.choices.size(), found.choices.size());
  EXPECT_TRUE(shrunk.trace.faults.has_crashes())
      << "shrinking must not lose the fault that makes the trace fail";

  // The serialized artifact is self-contained: parse + replay reproduces
  // the shrunk failure exactly (what `udring_fuzz --replay` checks).
  const explore::ScheduleTrace reparsed =
      explore::ScheduleTrace::parse(shrunk.trace.to_text());
  const explore::ReplayOutcome replayed = explore::replay_trace(reparsed);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.digest, shrunk.trace.expected_digest);
  EXPECT_EQ(replayed.reason, shrunk.reason);

  // Exhaustive rediscovery: the checker walks every schedule under the
  // shrunk plan; since the shrunk trace is one of them, it must report a
  // violation (not necessarily the same schedule — the first in walk order).
  mc::CheckRequest request;
  request.algorithm = reparsed.algorithm;
  request.problem = reparsed.problem;
  request.node_count = reparsed.node_count;
  request.homes = reparsed.homes;
  request.faults = reparsed.faults;
  request.max_actions = reparsed.max_actions;
  const mc::ModelCheckReport first = mc::check(request);
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(first.verdict, "violation");
  ASSERT_TRUE(first.counterexample.has_value());
  const explore::ReplayOutcome ce = explore::replay_trace(*first.counterexample);
  EXPECT_TRUE(ce.failed);
  EXPECT_EQ(ce.digest, first.counterexample->expected_digest);
  const mc::ModelCheckReport second = mc::check(request);
  EXPECT_EQ(second.digest(), first.digest());
  EXPECT_EQ(second.failure_reason, first.failure_reason);
}

TEST(McFaultBudget, CleanPlanVerifiesAndCrashBudgetFindsViolation) {
  mc::CheckRequest request;
  request.algorithm = core::Algorithm::KnownKFull;
  request.node_count = 6;
  request.homes = {0, 3};

  const mc::ModelCheckReport clean = mc::check(request);
  ASSERT_TRUE(clean.ok) << clean.failure_reason;
  ASSERT_TRUE(clean.complete);

  mc::FaultBudget budget;
  budget.crashes = 1;
  budget.max_fault_action = 4;
  const mc::ModelCheckReport faulty =
      mc::check_with_faults(request, budget, {});
  EXPECT_FALSE(faulty.ok)
      << "a crash-stop fault must break uniform deployment somewhere";
  EXPECT_EQ(faulty.verdict, "violation");
  ASSERT_TRUE(faulty.counterexample.has_value());
  // The counterexample carries its plan and replays stand-alone.
  EXPECT_TRUE(faulty.counterexample->faults.has_crashes());
  const explore::ReplayOutcome replayed =
      explore::replay_trace(*faulty.counterexample);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.digest, faulty.counterexample->expected_digest);

  const mc::ModelCheckReport again = mc::check_with_faults(request, budget, {});
  EXPECT_EQ(again.digest(), faulty.digest());
  EXPECT_EQ(again.failure_reason, faulty.failure_reason);
}

TEST(McFaultBudget, RewireBudgetEnumerationIsDeterministic) {
  mc::CheckRequest request;
  request.algorithm = core::Algorithm::KnownKFull;
  request.node_count = 6;
  request.homes = {0, 3};
  mc::FaultBudget budget;
  budget.rewires = 1;
  budget.max_fault_action = 4;

  const mc::ModelCheckReport a = mc::check_with_faults(request, budget, {});
  const mc::ModelCheckReport b = mc::check_with_faults(request, budget, {});
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  if (!a.ok) {
    ASSERT_TRUE(a.counterexample.has_value());
    const explore::ReplayOutcome replayed =
        explore::replay_trace(*a.counterexample);
    EXPECT_TRUE(replayed.failed);
    EXPECT_EQ(replayed.digest, a.counterexample->expected_digest);
  }
}

TEST(McFaultBudget, VerdictAgreesAcrossEveryPruningCombo) {
  // The pruned == unpruned contract extended to fault enumeration: with
  // dedup on or off, the verdict over a nonzero fault budget must not move.
  mc::CheckRequest request;
  request.algorithm = core::Algorithm::KnownKFull;
  request.node_count = 5;
  request.homes = {0, 2};
  mc::FaultBudget budget;
  budget.crashes = 1;
  budget.max_fault_action = 3;

  const mc::ModelCheckReport reference =
      mc::check_with_faults(request, budget, {});
  for (const bool dedup : {false, true}) {
    mc::McOptions options;
    options.dedup_states = dedup;
    const mc::ModelCheckReport report =
        mc::check_with_faults(request, budget, options);
    EXPECT_EQ(report.ok, reference.ok) << "dedup=" << dedup;
    EXPECT_EQ(report.complete, reference.complete) << "dedup=" << dedup;
    EXPECT_EQ(report.verdict, reference.verdict) << "dedup=" << dedup;
  }
}

}  // namespace
}  // namespace udring
