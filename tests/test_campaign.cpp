// Tests for the exp/campaign engine: deterministic grid expansion, the
// worker-count-invariance contract (same grid + seed ⇒ byte-identical
// per-scenario and aggregated results at 1 vs 8 workers), failure
// propagation into the campaign summary, and the ScenarioResult hot-struct
// contract (success path carries no cold allocations — pinned with a
// counting allocator, the same technique bench_huge_instance uses).

#include "exp/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/checker.h"

// Defines the global counting operator new for this test binary (one TU
// only); measurement windows snapshot udring::allocation_count() around
// single-threaded campaign runs. Compiled out under sanitizers, whose own
// operator new must stay in charge — the pinned test skips there.
#include "util/counting_allocator.h"

namespace udring::exp {
namespace {

/// Every ScenarioResult the engine produced, in expansion order, collected
/// through the scenario sink (each call writes only its own index slot).
struct Collected {
  CampaignResult result;
  std::vector<ScenarioResult> results;
};

Collected run_collecting(const CampaignGrid& grid, CampaignOptions options) {
  Collected out;
  out.results.resize(expansion_size(grid));
  options.scenario_sink = [&out](const Scenario& s, const ScenarioResult& r) {
    ScenarioResult& slot = out.results.at(s.index);
    slot.success = r.success;
    slot.total_moves = r.total_moves;
    slot.makespan = r.makespan;
    slot.max_memory_bits = r.max_memory_bits;
    slot.actions = r.actions;
    if (r.cold) slot.cold = std::make_unique<ScenarioResult::Cold>(*r.cold);
  };
  out.result = run_campaign_streaming(grid, options);
  return out;
}

CampaignGrid small_grid() {
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull, core::Algorithm::UnknownRelaxed};
  grid.families = {ConfigFamily::RandomAny};
  grid.schedulers = {sim::SchedulerKind::RoundRobin, sim::SchedulerKind::Random};
  grid.node_counts = {16, 24, 32};
  grid.agent_counts = {2, 4};
  grid.seeds = 4;
  grid.base_seed = 7;
  return grid;
}

TEST(Campaign, ExpansionIsDeterministicAndIndexed) {
  const CampaignGrid grid = small_grid();
  const auto a = expand(grid);
  const auto b = expand(grid);
  ASSERT_EQ(a.size(), 2u * 2u * 3u * 2u * 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].node_count, b[i].node_count);
    EXPECT_EQ(a[i].agent_count, b[i].agent_count);
    EXPECT_EQ(a[i].repetition, b[i].repetition);
  }
}

TEST(Campaign, ExpansionSkipsInfeasibleCombinations) {
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.families = {ConfigFamily::Packed};
  grid.node_counts = {16};
  grid.agent_counts = {2, 4, 5, 20};  // 5 > ceil(16/4), 20 > n
  grid.seeds = 1;
  const auto scenarios = expand(grid);
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].agent_count, 2u);
  EXPECT_EQ(scenarios[1].agent_count, 4u);

  CampaignGrid periodic = grid;
  periodic.families = {ConfigFamily::Periodic};
  periodic.node_counts = {24};
  periodic.agent_counts = {6};
  periodic.symmetries = {2, 3, 5};  // 5 divides neither 24 nor 6
  EXPECT_EQ(expand(periodic).size(), 2u);
}

TEST(Campaign, ByteIdenticalResultsAtOneVersusEightWorkers) {
  const CampaignGrid grid = small_grid();
  const Collected serial_run = run_collecting(grid, {.workers = 1});
  const Collected parallel_run = run_collecting(grid, {.workers = 8});
  const CampaignResult& serial = serial_run.result;
  const CampaignResult& parallel = parallel_run.result;

  // The sink saw every scenario exactly once, with the same outcome in the
  // same slot at either worker count.
  ASSERT_EQ(serial_run.results.size(), serial.scenario_count);
  ASSERT_EQ(parallel_run.results.size(), serial_run.results.size());
  EXPECT_EQ(serial.workers_used, 1u);
  EXPECT_EQ(parallel.workers_used, 8u);
  for (std::size_t i = 0; i < serial_run.results.size(); ++i) {
    const ScenarioResult& a = serial_run.results[i];
    const ScenarioResult& b = parallel_run.results[i];
    ASSERT_GT(a.actions, 0u) << "scenario " << i << " never reached the sink";
    ASSERT_EQ(a.success, b.success) << "scenario " << i;
    ASSERT_EQ(a.total_moves, b.total_moves) << "scenario " << i;
    ASSERT_EQ(a.makespan, b.makespan) << "scenario " << i;
    ASSERT_EQ(a.max_memory_bits, b.max_memory_bits) << "scenario " << i;
    ASSERT_EQ(a.actions, b.actions) << "scenario " << i;
    ASSERT_EQ(a.failure(), b.failure()) << "scenario " << i;
    ASSERT_TRUE(std::ranges::equal(a.final_positions(), b.final_positions()))
        << "scenario " << i;
  }
  EXPECT_EQ(serial.digest(), parallel.digest());

  // The rendered summaries differ only in the reported worker count.
  std::string serial_text = serial.summary();
  std::string parallel_text = parallel.summary();
  const auto strip = [](std::string& text, const std::string& needle) {
    const auto at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.erase(at, needle.size());
  };
  strip(serial_text, "workers: 1");
  strip(parallel_text, "workers: 8");
  EXPECT_EQ(serial_text, parallel_text);
}

TEST(Campaign, InstancesArePairedAcrossAlgorithmsAndSchedulers) {
  // Cross-algorithm and cross-scheduler cells must be measured on the same
  // drawn configurations (the substream key covers only the instance
  // coordinates), so their columns are paired comparisons.
  const CampaignGrid grid = small_grid();
  const auto scenarios = expand(grid);
  const Scenario* reference = nullptr;
  std::size_t paired = 0;
  for (const Scenario& s : scenarios) {
    if (s.node_count != 24 || s.agent_count != 4 || s.repetition != 2) continue;
    if (reference == nullptr) {
      reference = &s;
      continue;
    }
    EXPECT_TRUE(s.algorithm != reference->algorithm ||
                s.scheduler != reference->scheduler);
    EXPECT_EQ(scenario_homes(grid, s), scenario_homes(grid, *reference));
    ++paired;
  }
  EXPECT_EQ(paired, 3u);  // 2 algorithms × 2 schedulers − the reference
}

TEST(Campaign, RepeatedRunsAreIdentical) {
  const CampaignGrid grid = small_grid();
  EXPECT_EQ(run_campaign_streaming(grid, {.workers = 3}).digest(),
            run_campaign_streaming(grid, {.workers = 5}).digest());
}

TEST(Campaign, RoundRobinDigestAcrossMaskWordsIsPinned) {
  // Round-robin draws read the enabled set's bitmask (one 64-bit word per 64
  // agents) and wrap the cursor across words; k = 65 and k = 130 span two
  // and three words. The pinned value is the enabled-set scan's digest, so a
  // missed wrap or a stale bit moves it.
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull,
                     core::Algorithm::KnownKLogMem};
  grid.schedulers = {sim::SchedulerKind::RoundRobin};
  grid.instances = {{512, 65}, {640, 130}};
  grid.seeds = 2;
  const CampaignResult result = run_campaign_streaming(grid, {.workers = 1});
  ASSERT_TRUE(result.all_ok());
  EXPECT_EQ(result.scenario_count, 8u);
  EXPECT_EQ(result.digest(), 0x7f803383588eb989ULL)
      << std::hex << result.digest();
}

TEST(Campaign, SynchronousDigestAcrossRoundsIsPinned) {
  // Synchronous draws resume a round at a cursor into the enabled set
  // instead of rescanning it from the front. k = 65 and k = 256 run many
  // rounds with agents enabled mid-round; the pinned value is the
  // front-scan's digest, so a cursor that skips an unstamped agent moves it.
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull,
                     core::Algorithm::KnownKLogMem};
  grid.schedulers = {sim::SchedulerKind::Synchronous};
  grid.instances = {{512, 65}, {2048, 256}};
  grid.seeds = 2;
  const CampaignResult result = run_campaign_streaming(grid, {.workers = 1});
  ASSERT_TRUE(result.all_ok());
  EXPECT_EQ(result.scenario_count, 8u);
  EXPECT_EQ(result.digest(), 0xbd00a53bcd1470baULL)
      << std::hex << result.digest();
}

TEST(Campaign, AllScenariosSucceedOnPaperAlgorithms) {
  const CampaignResult result =
      run_campaign_streaming(small_grid(), {.workers = 4});
  EXPECT_TRUE(result.all_ok()) << result.summary();
  EXPECT_EQ(result.failures, 0u);
  for (const auto& [key, stats] : result.cells) {
    EXPECT_EQ(stats.runs, 4u);
    EXPECT_EQ(stats.successes, stats.runs);
  }
}

TEST(Campaign, FailingScenariosSurfaceInSummary) {
  CampaignGrid grid = small_grid();
  // An action budget of 1 cannot complete any run: every scenario must be
  // reported as a failure, not silently averaged away.
  grid.sim_options.max_actions = 1;
  const CampaignResult result = run_campaign_streaming(grid, {.workers = 4});
  EXPECT_FALSE(result.all_ok());
  EXPECT_EQ(result.failures, result.scenario_count);
  EXPECT_EQ(result.scenario_count, expansion_size(grid));
  ASSERT_FALSE(result.failure_samples.empty());
  EXPECT_NE(result.failure_samples.front().find("action limit"),
            std::string::npos);
  const std::string summary = result.summary();
  EXPECT_NE(summary.find("FAIL"), std::string::npos);
  EXPECT_NE(summary.find("0.0%"), std::string::npos);
}

TEST(Campaign, ExceptionsAreContainedAsFailures) {
  // n = 8, k = 8, l = 4 passes the static feasibility screen (l | n, l | k,
  // k/l = 2 ≤ n/l = 2) but periodic_homes throws at draw time: a 2-agent
  // factor on a 2-node segment is forcibly symmetric, so no aperiodic factor
  // exists. The worker must contain the throw as a reported failure.
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.families = {ConfigFamily::Periodic};
  grid.node_counts = {8};
  grid.agent_counts = {8};
  grid.symmetries = {4};
  grid.seeds = 2;
  const CampaignResult result = run_campaign_streaming(grid, {.workers = 2});
  ASSERT_EQ(result.scenario_count, 2u);
  EXPECT_EQ(result.failures, 2u);
  ASSERT_FALSE(result.failure_samples.empty());
  EXPECT_NE(result.failure_samples.front().find("exception:"),
            std::string::npos);
}

TEST(Campaign, SinkSeesFinalPositions) {
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.node_counts = {16};
  grid.agent_counts = {4};
  grid.seeds = 1;
  const Collected run = run_collecting(grid, {.workers = 1});
  ASSERT_EQ(run.results.size(), 1u);
  ASSERT_TRUE(run.results[0].success);
  EXPECT_TRUE(run.results[0].failure().empty());
  const std::span<const std::size_t> positions =
      run.results[0].final_positions();
  ASSERT_EQ(positions.size(), 4u);
  // Uniform deployment of 4 agents on 16 nodes: every gap is exactly 4.
  for (const std::size_t gap : sim::ring_gaps(
           std::vector<std::size_t>(positions.begin(), positions.end()), 16)) {
    EXPECT_EQ(gap, 4u);
  }
}

TEST(Campaign, MeasureCellMatchesExplicitCampaign) {
  const Averages direct = measure_cell(core::Algorithm::KnownKFull,
                                       ConfigFamily::RandomAny, 32, 4, 1, 5);
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.node_counts = {32};
  grid.agent_counts = {4};
  grid.seeds = 5;
  const Averages via_campaign = run_campaign_streaming(grid).averages(
      CellKey{core::Algorithm::KnownKFull, ConfigFamily::RandomAny,
              sim::SchedulerKind::Synchronous, 32, 4, 1});
  EXPECT_EQ(direct.runs, via_campaign.runs);
  EXPECT_EQ(direct.moves, via_campaign.moves);
  EXPECT_EQ(direct.makespan, via_campaign.makespan);
  EXPECT_EQ(direct.memory_bits, via_campaign.memory_bits);
  EXPECT_EQ(direct.success_rate, via_campaign.success_rate);
}

TEST(Campaign, MeasureCellThrowsOnInfeasibleCell) {
  // The old bench plumbing threw from the generator when a sweep asked for
  // an impossible cell; the campaign veneer must stay as loud instead of
  // averaging an empty cell into a silent row of zeros.
  EXPECT_THROW((void)measure_cell(core::Algorithm::KnownKFull,
                                  ConfigFamily::Periodic, 384, 24, 5, 1),
               std::invalid_argument);
  EXPECT_THROW((void)measure_cell(core::Algorithm::KnownKFull,
                                  ConfigFamily::Packed, 16, 10, 1, 1),
               std::invalid_argument);
}

TEST(Campaign, ScenarioResultHotStructStaysSmall) {
  // The trim contract: five measures + one cold pointer. Every scenario a
  // worker runs builds one; new fields belong in Cold.
  static_assert(sizeof(ScenarioResult) <= 6 * sizeof(void*),
                "ScenarioResult hot struct grew; move new fields to Cold");
  ScenarioResult ok;
  ok.success = true;
  EXPECT_EQ(ok.cold, nullptr);
  EXPECT_TRUE(ok.failure().empty());
  EXPECT_TRUE(ok.final_positions().empty());
}

TEST(Campaign, SuccessPathAllocationsAreBoundedSteadyState) {
#if !UDRING_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // Warm a single-worker streaming campaign, then measure an identical
  // repeat: the steady-state allowance is the O(k) per-run objects (agent
  // programs + homes draws) plus O(cells + samples) aggregation state.
  // ScenarioResult cold data must contribute nothing on
  // the all-success path — reintroducing a per-scenario string or positions
  // vector busts the bound immediately (2 extra allocs/scenario against a
  // measured ~1 of slack).
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.schedulers = {sim::SchedulerKind::RoundRobin};
  grid.node_counts = {24};
  grid.agent_counts = {4};
  grid.seeds = 16;
  const CampaignOptions options{.workers = 1};

  const CampaignResult warmup = run_campaign_streaming(grid, options);
  ASSERT_TRUE(warmup.all_ok()) << warmup.summary();

  const std::size_t before = udring::allocation_count();
  const CampaignResult measured = run_campaign_streaming(grid, options);
  const std::size_t allocs = udring::allocation_count() - before;
  ASSERT_TRUE(measured.all_ok());

  const std::size_t scenarios = measured.scenario_count;
  ASSERT_EQ(scenarios, 16u);
  // Per-run allowance mirrors bench_huge_instance's 16 × k; the constant
  // covers the worker pool, the cell map and the result scaffolding.
  const std::size_t allowance = scenarios * (16 * 4) + 256;
  EXPECT_LE(allocs, allowance)
      << "steady-state campaign allocations regressed: " << allocs
      << " allocs for " << scenarios << " scenarios";
#endif
}

TEST(Campaign, CellLookupMissReturnsNull) {
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.node_counts = {16};
  grid.agent_counts = {4};
  const CampaignResult result = run_campaign_streaming(grid);
  EXPECT_NE(result.cell(CellKey{core::Algorithm::KnownKFull,
                                ConfigFamily::RandomAny,
                                sim::SchedulerKind::Synchronous, 16, 4, 1}),
            nullptr);
  EXPECT_EQ(result.cell(CellKey{core::Algorithm::Rendezvous,
                                ConfigFamily::RandomAny,
                                sim::SchedulerKind::Synchronous, 16, 4, 1}),
            nullptr);
  EXPECT_EQ(result.averages(CellKey{core::Algorithm::Rendezvous,
                                    ConfigFamily::RandomAny,
                                    sim::SchedulerKind::Synchronous, 16, 4, 1})
                .runs,
            0u);
}

TEST(Campaign, AccumulatorMergeNeverDuplicatesAScenarioIndex) {
  // Scenario indices are unique across workers by construction, but the
  // bounded sample buffers are now also fed by checkpoint resumes and shard
  // merges — a replayed index (double-submitted shard caught late, a buggy
  // future caller) must fold to ONE sample, not two. insert_bounded's
  // duplicate-index guard is the last line of defense; pin it through the
  // public accumulator merge path.
  CampaignAccumulator a;
  a.failures = 1;
  a.failure_samples = {{3, "scenario 3 failed"}};
  a.cells[CellKey{core::Algorithm::KnownKFull, ConfigFamily::RandomAny,
                  sim::SchedulerKind::RoundRobin, 16, 4, 1}]
      .failure_samples = {{3, "scenario 3 failed"}};
  CampaignAccumulator b;
  b.failures = 2;
  b.failure_samples = {{3, "scenario 3 failed"}, {7, "scenario 7 failed"}};
  b.cells[CellKey{core::Algorithm::KnownKFull, ConfigFamily::RandomAny,
                  sim::SchedulerKind::RoundRobin, 16, 4, 1}]
      .failure_samples = {{3, "scenario 3 failed"}, {7, "scenario 7 failed"}};
  merge_accumulators(a, std::move(b));
  const FailureSamples expected = {{3, "scenario 3 failed"},
                                   {7, "scenario 7 failed"}};
  EXPECT_EQ(a.failure_samples, expected);
  EXPECT_EQ(a.cells.begin()->second.failure_samples, expected);
}

TEST(Campaign, CellStatsMergeChecksSumsAtTheUint64Boundary) {
  // merge_cell_stats is the checked path shared by checkpoint resume and
  // shard merging: exactly at the boundary it succeeds, one past it throws
  // std::overflow_error naming the field — never a silent wrap.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  CellStats at_boundary;
  at_boundary.moves_sum = kMax - 10;
  CellStats add_ten;
  add_ten.moves_sum = 10;
  merge_cell_stats(at_boundary, std::move(add_ten));
  EXPECT_EQ(at_boundary.moves_sum, kMax);  // == 2^64 - 1: still exact

  CellStats one_more;
  one_more.moves_sum = 1;
  try {
    merge_cell_stats(at_boundary, std::move(one_more));
    FAIL() << "wrapping merge must throw";
  } catch (const std::overflow_error& error) {
    EXPECT_NE(std::string(error.what()).find("moves_sum"), std::string::npos)
        << error.what();
  }

  CellStats actions_wrap_a;
  actions_wrap_a.actions_sum = kMax;
  CellStats actions_wrap_b;
  actions_wrap_b.actions_sum = 1;
  EXPECT_THROW(merge_cell_stats(actions_wrap_a, std::move(actions_wrap_b)),
               std::overflow_error);
}

TEST(Campaign, AveragesReportSketchQuantiles) {
  const CampaignResult result = run_campaign_streaming(small_grid());
  for (const auto& [key, stats] : result.cells) {
    const Averages avg = stats.averages();
    ASSERT_GT(avg.runs, 0u);
    EXPECT_EQ(stats.moves_sketch.total(), stats.runs);
    EXPECT_EQ(stats.makespan_sketch.total(), stats.runs);
    // Quantiles are ordered and bracketed by the exact extremes.
    EXPECT_LE(avg.moves_p50, avg.moves_p90);
    EXPECT_LE(avg.moves_p90, avg.moves_p99);
    EXPECT_GE(avg.moves_p50, static_cast<double>(stats.moves_sketch.min()));
    EXPECT_LE(avg.moves_p99, static_cast<double>(stats.moves_sketch.max()));
    EXPECT_LE(avg.makespan_p50, avg.makespan_p90);
    EXPECT_LE(avg.makespan_p90, avg.makespan_p99);
  }
}

}  // namespace
}  // namespace udring::exp
