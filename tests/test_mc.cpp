// The exhaustive model checker (src/mc): the subsystem that turns
// "for every asynchronous schedule" from a sampled claim into a machine-
// checked one on small instances.
//
// Pins, per the PR's acceptance criteria:
//  1. Exhaustive verification of KnownKFull and KnownKLogMem at small (n, k)
//     on ring, Euler-tree and Eulerian-graph topologies, with exact
//     schedule/state counts that are byte-identical at any worker count
//     (the frontier-sharded decomposition is part of the options, never of
//     the parallelism), plus a literal full-enumeration count on the
//     smallest instance — a number derived from nothing but the simulator's
//     branching structure, so any semantic drift moves it.
//  2. Deterministic (randomness-free) rediscovery of the non-FIFO
//     double-booked-base-node violation, with the emitted counterexample
//     replaying through the existing explore::replay_trace path to the same
//     failure and digest.
//  3. Pruned == unpruned verdict equality on grids where full enumeration
//     is feasible, for every pruning combination (dedup × sleep sets), plus
//     shared-visited-set runs whose verdicts and counts are byte-identical
//     at any worker count.
//
// Plus the foundation the dedup pruning rests on: ExecutionState::
// config_digest() must hash the configuration and not the history
// (commuting independent actions converge; the event log does not).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/generators.h"
#include "core/runner.h"
#include "embed/topology.h"
#include "explore/fuzz.h"
#include "mc/model_check.h"
#include "util/rng.h"

namespace udring::mc {
namespace {

[[nodiscard]] CheckRequest ring_request(core::Algorithm algorithm,
                                        std::size_t n,
                                        std::vector<std::size_t> homes) {
  CheckRequest request;
  request.algorithm = algorithm;
  request.node_count = n;
  request.homes = std::move(homes);
  return request;
}

void expect_same_report(const ModelCheckReport& a, const ModelCheckReport& b,
                        const char* what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.verdict, b.verdict) << what;
  EXPECT_EQ(a.stats.schedules, b.stats.schedules) << what;
  EXPECT_EQ(a.stats.states_expanded, b.stats.states_expanded) << what;
  EXPECT_EQ(a.stats.states_deduped, b.stats.states_deduped) << what;
  EXPECT_EQ(a.stats.sleep_pruned, b.stats.sleep_pruned) << what;
  EXPECT_EQ(a.stats.dpor_pruned, b.stats.dpor_pruned) << what;
  EXPECT_EQ(a.stats.replays, b.stats.replays) << what;
  EXPECT_EQ(a.stats.total_actions, b.stats.total_actions) << what;
  EXPECT_EQ(a.stats.max_depth, b.stats.max_depth) << what;
  EXPECT_EQ(a.stats.shards, b.stats.shards) << what;
  EXPECT_EQ(a.digest(), b.digest()) << what;
}

// ---- config_digest: state, not history --------------------------------------

TEST(ConfigDigest, CommutingIndependentActionsConverge) {
  // Two agents with disjoint footprints (homes 0 and 4 on an 8-ring): their
  // first actions commute. Both interleavings must reach the SAME
  // configuration digest while the event-log digests (history) differ.
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 4};
  spec.sim_options.record_events = true;
  auto ab = core::make_simulator(core::Algorithm::KnownKFull, spec);
  auto ba = core::make_simulator(core::Algorithm::KnownKFull, spec);
  ASSERT_TRUE(ab->step_agent(0));
  ASSERT_TRUE(ab->step_agent(1));
  ASSERT_TRUE(ba->step_agent(1));
  ASSERT_TRUE(ba->step_agent(0));
  EXPECT_EQ(ab->config_digest(), ba->config_digest());
  EXPECT_NE(ab->log().digest(), ba->log().digest())
      << "event logs record history and must distinguish the orders";
}

TEST(ConfigDigest, DistinguishesSuccessiveConfigurations) {
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 4};
  auto sim = core::make_simulator(core::Algorithm::KnownKFull, spec);
  const std::uint64_t initial = sim->config_digest();
  ASSERT_TRUE(sim->step_agent(0));
  const std::uint64_t after = sim->config_digest();
  EXPECT_NE(initial, after);
  // A fresh state on the same instance digests identically to the first.
  auto again = core::make_simulator(core::Algorithm::KnownKFull, spec);
  EXPECT_EQ(again->config_digest(), initial);
}

// ---- 1. exhaustive verification, counts stable across workers ---------------

TEST(Exhaustive, KnownKFullSmallestInstanceFullEnumerationCount) {
  // n = 6, k = 2, every pruning off: the walk IS the full schedule tree.
  // 2704 complete schedules (6989 tree nodes) is a structural constant of
  // the simulator's atomic-action semantics for homes {0, 3} — a number
  // independent of any hash function, so any drift in the action semantics,
  // the enabled-set rule, or the choice encoding moves it.
  McOptions options;
  options.dedup_states = false;
  options.sleep_sets = false;
  const ModelCheckReport report =
      check(ring_request(core::Algorithm::KnownKFull, 6, {0, 3}), options);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.verdict, "verified");
  EXPECT_EQ(report.stats.schedules, 2704u);
  EXPECT_EQ(report.stats.states_expanded, 6989u);
  EXPECT_EQ(report.stats.states_deduped, 0u);
  EXPECT_EQ(report.stats.sleep_pruned, 0u);
  EXPECT_EQ(report.stats.dpor_pruned, 0u);
}

class ExhaustiveAlgorithms
    : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(ExhaustiveAlgorithms, VerifiedOnSmallRingAtAnyWorkerCount) {
  Rng rng(7);
  CheckRequest request = ring_request(
      GetParam(), 8, exp::draw_homes(exp::ConfigFamily::RandomAny, 8, 3, 1, rng));
  McOptions options;
  options.frontier_target = 6;  // sharded decomposition: fixed by options
  options.workers = 1;
  const ModelCheckReport serial = check(request, options);
  EXPECT_TRUE(serial.ok) << serial.failure_reason;
  EXPECT_TRUE(serial.complete);
  EXPECT_GT(serial.stats.schedules, 0u);
  EXPECT_GT(serial.stats.states_expanded, 0u);
  EXPECT_GT(serial.stats.shards, 1u);
  for (const std::size_t workers : {2u, 4u}) {
    McOptions sharded = options;
    sharded.workers = workers;
    expect_same_report(serial, check(request, sharded),
                       "worker count changed the report");
  }
}

TEST_P(ExhaustiveAlgorithms, VerifiedNativelyOnEulerTreeAndEulerianGraph) {
  // The §5 embeddings, checked exhaustively on their native virtual rings.
  Rng rng(19);
  for (const embed::RandomNetworkKind kind :
       {embed::RandomNetworkKind::Tree, embed::RandomNetworkKind::Graph}) {
    CheckRequest request;
    request.algorithm = GetParam();
    request.topology = embed::random_network_topology(kind, 5, rng);
    request.node_count = request.topology.size();
    request.homes = embed::draw_virtual_homes(request.topology, 2, rng);
    const ModelCheckReport report = check(request);
    EXPECT_TRUE(report.ok) << report.failure_reason;
    EXPECT_TRUE(report.complete);
    EXPECT_GT(report.stats.states_expanded, 0u);
  }
}

TEST_P(ExhaustiveAlgorithms, VerifiedAtIssueScaleWithPruning) {
  // The tentpole's stated grid corner: n = 12 (full) / 10 (logmem), k = 4 —
  // feasible only because dedup + sleep sets cut the tree to its state DAG.
  const bool logmem = GetParam() == core::Algorithm::KnownKLogMem;
  const std::size_t n = logmem ? 10 : 12;
  const ModelCheckReport report =
      check(ring_request(GetParam(), n, gen::uniform_homes(n, 4)));
  EXPECT_TRUE(report.ok) << report.failure_reason;
  EXPECT_TRUE(report.complete);
  EXPECT_GT(report.stats.states_deduped, 0u);
  EXPECT_GT(report.stats.sleep_pruned, 0u);
}

TEST_P(ExhaustiveAlgorithms, SeedOneWalkCountsArePinned) {
  // The `udring_mc --seed=1 --n=12 --k=4` draws. Schedules, states, dedup
  // and pruning counts and depth are properties of the tree, not of how the
  // walk backtracks, so snapshot restores must reproduce them exactly.
  // replays == 0 and the pinned total_actions (tree edges plus restore
  // re-steps) keep the restore path from drifting into prefix replays,
  // which would spend 492410 / 595929 actions here.
  struct Pin {
    std::size_t schedules, expanded, deduped, sleep_pruned, max_depth,
        total_actions;
  };
  const Pin pin = GetParam() == core::Algorithm::KnownKFull
                      ? Pin{1, 14125, 13953, 18129, 88, 77170}
                      : Pin{6, 14659, 13582, 17093, 115, 76546};
  Rng rng(1);
  const explore::DrawnInstance drawn =
      explore::draw_instance(explore::FuzzTopology::Ring, 12, 4, rng);
  const ModelCheckReport report =
      check(ring_request(GetParam(), drawn.node_count, drawn.homes));
  EXPECT_TRUE(report.ok) << report.failure_reason;
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.stats.schedules, pin.schedules);
  EXPECT_EQ(report.stats.states_expanded, pin.expanded);
  EXPECT_EQ(report.stats.states_deduped, pin.deduped);
  EXPECT_EQ(report.stats.sleep_pruned, pin.sleep_pruned);
  EXPECT_EQ(report.stats.dpor_pruned, 0u);
  EXPECT_EQ(report.stats.max_depth, pin.max_depth);
  EXPECT_EQ(report.stats.replays, 0u);
  EXPECT_EQ(report.stats.total_actions, pin.total_actions);
  EXPECT_EQ(report.stats.shards, 1u);
}

INSTANTIATE_TEST_SUITE_P(SmallGrids, ExhaustiveAlgorithms,
                         ::testing::Values(core::Algorithm::KnownKFull,
                                           core::Algorithm::KnownKLogMem),
                         [](const auto& info) {
                           std::string name(core::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- 2. deterministic rediscovery of the non-FIFO violation -----------------

[[nodiscard]] CheckRequest stress_fault_request(core::Algorithm algorithm) {
  CheckRequest request = ring_request(algorithm, gen::kLogmemStressNodes,
                                      gen::logmem_stress_homes());
  request.fault_non_fifo = true;
  request.fault_min_phase = 1;  // deployment-phase window (see SimOptions)
  return request;
}

TEST(FaultRediscovery, FindsDoubleBookedBaseNodeWithoutRandomness) {
  // PR 2's fuzzer needed randomized adversarial search to surface this; the
  // checker's plain DFS order finds it with zero random bits.
  const ModelCheckReport report =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.verdict, "violation");
  EXPECT_EQ(report.failure_reason, "goal: two agents share node 0");
  ASSERT_TRUE(report.counterexample.has_value());

  // The counterexample is a first-class trace: the existing replay path
  // reproduces the exact failure and digest (udring_fuzz --replay accepts it).
  const explore::ScheduleTrace& trace = *report.counterexample;
  EXPECT_EQ(trace.note, report.failure_reason);
  const explore::ReplayOutcome replayed = explore::replay_trace(trace);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.reason, report.failure_reason);
  EXPECT_EQ(replayed.digest, trace.expected_digest);

  // Determinism: a second check is byte-identical, counterexample included.
  const ModelCheckReport again =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict));
  expect_same_report(report, again, "rediscovery must be deterministic");
  ASSERT_TRUE(again.counterexample.has_value());
  EXPECT_EQ(again.counterexample->choices, trace.choices);
}

TEST(FaultRediscovery, HardenedVariantSurvivesTheSameSearchBudget) {
  // Same instance, same fault, hardened deployment: the checker must NOT
  // find a violation within a budget far larger than the strict variant
  // needed (the strict counterexample is ~150 actions deep).
  CheckRequest request = stress_fault_request(core::Algorithm::KnownKLogMem);
  McOptions options;
  options.budget_actions = 200000;
  const ModelCheckReport report = check(request, options);
  EXPECT_TRUE(report.ok) << report.failure_reason;
}

TEST(FaultRediscovery, VerdictIdenticalUnderEveryPruningCombination) {
  for (const bool dedup : {false, true}) {
    for (const bool sleep : {false, true}) {
      McOptions options;
      options.dedup_states = dedup;
      options.sleep_sets = sleep;
      const ModelCheckReport report =
          check(stress_fault_request(core::Algorithm::KnownKLogMemStrict),
                options);
      EXPECT_FALSE(report.ok);
      EXPECT_EQ(report.failure_reason, "goal: two agents share node 0")
          << "dedup=" << dedup << " sleep=" << sleep;
    }
  }
}

// ---- 3. pruned == unpruned verdicts on fully enumerable grids ---------------

TEST(PruningSoundness, VerdictEqualOnFullyEnumerableGrid) {
  struct Cell {
    core::Algorithm algorithm;
    std::size_t n;
  };
  const std::vector<Cell> grid = {
      {core::Algorithm::KnownKFull, 5},
      {core::Algorithm::KnownKFull, 6},
      {core::Algorithm::KnownKFull, 7},
      {core::Algorithm::KnownKLogMem, 5},
      {core::Algorithm::KnownKLogMem, 6},
  };
  Rng rng(31);
  for (const Cell& cell : grid) {
    const CheckRequest request = ring_request(
        cell.algorithm, cell.n,
        exp::draw_homes(exp::ConfigFamily::RandomAny, cell.n, 2, 1, rng));
    ModelCheckReport reference;  // fully unpruned = ground truth
    bool have_reference = false;
    for (const bool dedup : {false, true}) {
      for (const bool sleep : {false, true}) {
        McOptions options;
        options.dedup_states = dedup;
        options.sleep_sets = sleep;
        const ModelCheckReport report = check(request, options);
        EXPECT_TRUE(report.complete)
            << core::to_string(cell.algorithm) << " n=" << cell.n;
        if (!have_reference) {
          reference = report;
          have_reference = true;
          EXPECT_GT(report.stats.schedules, 0u);
        }
        EXPECT_EQ(report.ok, reference.ok)
            << core::to_string(cell.algorithm) << " n=" << cell.n
            << " dedup=" << dedup << " sleep=" << sleep;
        EXPECT_EQ(report.verdict, reference.verdict);
        // Pruning may only shrink the walk, never grow it.
        EXPECT_LE(report.stats.schedules, reference.stats.schedules);
        EXPECT_LE(report.stats.states_expanded,
                  reference.stats.states_expanded);
      }
    }
  }
}

// ---- shared visited set -----------------------------------------------------

TEST(SharedVisited, VerdictAndCountsIdenticalAtAnyWorkerCount) {
  // The closure-walk contract (model_check.h): with the lock-free shared
  // visited set, every count is a function of the claimed closure, so the
  // full report — not just the verdict — is byte-identical whether shards
  // race on 1, 2 or 4 threads.
  const CheckRequest request =
      ring_request(core::Algorithm::KnownKFull, 8, {0, 3, 6});
  McOptions options;
  options.shared_visited = true;
  options.frontier_target = 6;
  options.workers = 1;
  const ModelCheckReport serial = check(request, options);
  EXPECT_TRUE(serial.ok) << serial.failure_reason;
  EXPECT_TRUE(serial.complete);
  EXPECT_GT(serial.stats.states_deduped, 0u);
  for (const std::size_t workers : {2u, 4u}) {
    McOptions racing = options;
    racing.workers = workers;
    expect_same_report(serial, check(request, racing),
                       "worker count changed the shared-visited report");
  }
  // And the verdict agrees with the deterministic tree walk (counts differ:
  // the closure visits each state once, the tree walk re-proves per sleep
  // mask).
  const ModelCheckReport tree = check(request);
  EXPECT_EQ(serial.ok, tree.ok);
  EXPECT_EQ(serial.verdict, tree.verdict);
}

TEST(SharedVisited, ViolationFallsBackToTheDeterministicWalk) {
  // Which racing shard trips a violation first is nondeterministic, so
  // check() re-runs without the shared set: the report — counterexample
  // included — must be byte-identical to a plain check's.
  McOptions options;
  options.shared_visited = true;
  options.frontier_target = 6;
  options.workers = 4;
  const ModelCheckReport shared =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict), options);
  McOptions plain_options = options;  // fallback = same options, no shared set
  plain_options.shared_visited = false;
  const ModelCheckReport plain = check(
      stress_fault_request(core::Algorithm::KnownKLogMemStrict), plain_options);
  ASSERT_FALSE(shared.ok);
  expect_same_report(plain, shared, "violation fallback must be exact");
  ASSERT_TRUE(shared.counterexample.has_value());
  EXPECT_EQ(shared.counterexample->choices, plain.counterexample->choices);
}

TEST(SharedVisited, UndersizedTableDegradesToBudgetExhaustion) {
  // A full table may not silently drop states: the run must downgrade to
  // "budget-exhausted" (incomplete, not wrong).
  McOptions options;
  options.shared_visited = true;
  options.shared_visited_capacity = 64;  // far below this instance's closure
  const ModelCheckReport report =
      check(ring_request(core::Algorithm::KnownKFull, 8, {0, 3, 6}), options);
  EXPECT_TRUE(report.ok);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.verdict, "budget-exhausted");
}

TEST(FaultRediscovery, CapSensitiveCounterexampleReplaysStandAlone) {
  // A violation found under a custom per-schedule action cap must stay
  // replayable through the default replay path: the trace carries its
  // max-actions, so `udring_fuzz --replay` needs no extra flags.
  CheckRequest request =
      ring_request(core::Algorithm::KnownKFull, 8, {0, 2, 5});
  request.max_actions = 20;  // far below this instance's ~50-action runs
  const ModelCheckReport report = check(request);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure_reason,
            "action limit reached (livelock or broken algorithm)");
  ASSERT_TRUE(report.counterexample.has_value());
  EXPECT_EQ(report.counterexample->max_actions, 20u);

  // Round-trip through the text format, then replay with NO explicit cap.
  const explore::ScheduleTrace reparsed =
      explore::ScheduleTrace::parse(report.counterexample->to_text());
  EXPECT_EQ(reparsed.max_actions, 20u);
  const explore::ReplayOutcome replayed = explore::replay_trace(reparsed);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.reason, report.failure_reason);
  EXPECT_EQ(replayed.digest, report.counterexample->expected_digest);
}

// ---- budget + report plumbing -----------------------------------------------

TEST(Budget, ExhaustionIsReportedNotMistakenForAVerdict) {
  McOptions options;
  options.budget_actions = 50;  // far below the tree size
  const ModelCheckReport report =
      check(ring_request(core::Algorithm::KnownKFull, 8, {0, 2, 5}), options);
  EXPECT_TRUE(report.ok);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.verdict, "budget-exhausted");
  EXPECT_FALSE(report.counterexample.has_value());
}

TEST(Report, RejectsEmptyInstance) {
  EXPECT_THROW((void)check(ring_request(core::Algorithm::KnownKFull, 6, {})),
               std::invalid_argument);
}

// ---- campaign integration ---------------------------------------------------

TEST(GridIntegration, ChecksTheSameInstancesTheCampaignSamples) {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.node_counts = {6, 8};
  grid.agent_counts = {2};
  grid.seeds = 2;
  const GridReport report = check_grid(grid);
  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_TRUE(report.all_verified());
  EXPECT_EQ(report.violations, 0u);

  // Each cell checked exactly the configuration the campaign's substream
  // contract derives — "verified over all schedules" sits beside sampled
  // cells as evidence about the SAME instances.
  const std::vector<exp::Scenario> scenarios = exp::expand(grid);
  ASSERT_EQ(scenarios.size(), report.cells.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(report.cells[i].homes,
              exp::scenario_homes(grid, scenarios[i]));
    EXPECT_TRUE(report.cells[i].report.complete);
  }

  EXPECT_EQ(report.summary_table().rows(), report.cells.size());
  EXPECT_NE(report.summary().find("verified over all schedules"),
            std::string::npos);
  // Grid checking is deterministic end to end.
  EXPECT_EQ(report.digest(), check_grid(grid).digest());
}

TEST(GridIntegration, CellVerdictMatchesDirectCheck) {
  // A grid cell is exactly mc::check on the scenario's drawn instance with
  // the grid's sim options — fault knobs and action caps included. Pin the
  // equivalence on a faulted strict-logmem grid (whatever each drawn
  // instance yields, the cell must match the direct call byte for byte).
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKLogMemStrict};
  grid.instances = {{gen::kLogmemStressNodes, 6}};
  grid.seeds = 2;
  grid.sim_options.fault_non_fifo_links = true;
  grid.sim_options.fault_non_fifo_min_phase = 1;
  McOptions options;
  options.budget_actions = 100000;
  const GridReport report = check_grid(grid, options);
  ASSERT_EQ(report.cells.size(), 2u);
  for (const GridCell& cell : report.cells) {
    CheckRequest request;
    request.algorithm = cell.algorithm;
    request.node_count = cell.node_count;
    request.homes = cell.homes;
    request.fault_non_fifo = true;
    request.fault_min_phase = 1;
    const ModelCheckReport direct = check(request, options);
    EXPECT_EQ(direct.verdict, cell.report.verdict);
    EXPECT_EQ(direct.failure_reason, cell.report.failure_reason);
    EXPECT_EQ(direct.digest(), cell.report.digest());
  }
  EXPECT_EQ(report.violations == 0 && report.budget_exhausted == 0,
            report.all_verified());
}

}  // namespace
}  // namespace udring::mc
