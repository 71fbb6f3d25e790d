// Tests for the campaign engine's fold and its scenario sink: an index-order
// fold of the per-scenario stream the sink sees — written here, outside the
// engine, as the reference — must equal the engine's per-worker folds
// (cells, digest(), failure samples, summary) at any worker count; and
// attaching a sink must not change a single digest byte.

#include "exp/campaign.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace udring::exp {
namespace {

CampaignGrid shared_grid() {
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

/// Summaries differ only in the reported worker count; erase it to compare.
std::string strip_workers(std::string text, std::size_t workers) {
  const std::string needle = "workers: " + std::to_string(workers);
  const auto at = text.find(needle);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) text.erase(at, needle.size());
  return text;
}

/// One scenario as the sink saw it (ScenarioResult itself is move-only).
struct Seen {
  std::size_t times = 0;  ///< sink calls for this index; must end at 1
  Scenario scenario;
  bool success = false;
  std::size_t total_moves = 0;
  std::uint64_t makespan = 0;
  std::size_t max_memory_bits = 0;
  std::size_t actions = 0;
  std::string failure;
};

/// Runs the engine with a sink that records every scenario in its own
/// index slot.
CampaignResult run_with_sink(const CampaignGrid& grid, CampaignOptions options,
                             std::vector<Seen>& stream) {
  stream.assign(expansion_size(grid), Seen{});
  options.scenario_sink = [&stream](const Scenario& s,
                                    const ScenarioResult& r) {
    Seen& slot = stream.at(s.index);
    ++slot.times;
    slot.scenario = s;
    slot.success = r.success;
    slot.total_moves = r.total_moves;
    slot.makespan = r.makespan;
    slot.max_memory_bits = r.max_memory_bits;
    slot.actions = r.actions;
    slot.failure = r.failure();
  };
  return run_campaign_streaming(grid, options);
}

/// The reference fold: the sink's stream folded in index order into a
/// CampaignResult, with the engine's per-scenario hash spelled out here
/// (index, then the outcome, then a 0 where final positions never count).
CampaignResult index_order_fold(const std::vector<Seen>& stream) {
  CampaignResult reference;
  reference.scenario_count = stream.size();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Seen& seen = stream[i];
    EXPECT_EQ(seen.times, 1u) << "scenario " << i << " sink calls";
    EXPECT_EQ(seen.scenario.index, i);
    const Scenario& s = seen.scenario;
    CellStats& stats =
        reference.cells[CellKey{s.algorithm, s.family, s.scheduler,
                                s.node_count, s.agent_count, s.symmetry,
                                s.problem}];
    ++stats.runs;
    if (seen.success) ++stats.successes;
    stats.moves_sum += seen.total_moves;
    stats.makespan_sum += seen.makespan;
    stats.memory_bits_sum += seen.max_memory_bits;
    stats.actions_sum += seen.actions;
    stats.moves_sketch.add(seen.total_moves);
    stats.makespan_sketch.add(seen.makespan);
    if (!seen.success) ++reference.failures;
    std::uint64_t h = 0x5ce7a210ba5eedULL;
    fold64(h, i);
    fold64(h, seen.success ? 1 : 0);
    fold64(h, seen.total_moves);
    fold64(h, seen.makespan);
    fold64(h, seen.max_memory_bits);
    fold64(h, seen.actions);
    fold64(h, 0);
    reference.scenario_hash += h;
  }
  return reference;
}

TEST(StreamingCampaign, IndexOrderFoldOfTheSinkStreamEqualsTheEngine) {
  const CampaignGrid grid = shared_grid();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4},
                                    std::size_t{0}}) {  // 0 = hardware
    std::vector<Seen> stream;
    const CampaignResult engine =
        run_with_sink(grid, {.workers = workers}, stream);
    CampaignResult reference = index_order_fold(stream);
    reference.workers_used = engine.workers_used;
    EXPECT_EQ(engine.scenario_count, reference.scenario_count);
    EXPECT_EQ(engine.scenario_hash, reference.scenario_hash);
    EXPECT_EQ(engine.digest(), reference.digest()) << "workers=" << workers;
    EXPECT_EQ(engine.summary(), reference.summary()) << "workers=" << workers;
    ASSERT_EQ(engine.cells.size(), reference.cells.size());
    auto expected = reference.cells.begin();
    for (const auto& [key, stats] : engine.cells) {
      EXPECT_EQ(key, expected->first);
      EXPECT_EQ(stats.runs, expected->second.runs);
      EXPECT_EQ(stats.successes, expected->second.successes);
      EXPECT_EQ(stats.moves_sum, expected->second.moves_sum);
      EXPECT_EQ(stats.makespan_sum, expected->second.makespan_sum);
      EXPECT_EQ(stats.memory_bits_sum, expected->second.memory_bits_sum);
      EXPECT_EQ(stats.actions_sum, expected->second.actions_sum);
      EXPECT_EQ(stats.moves_sketch, expected->second.moves_sketch);
      EXPECT_EQ(stats.makespan_sketch, expected->second.makespan_sketch);
      ++expected;
    }
  }
}

TEST(StreamingCampaign, AttachingASinkChangesNoDigestByte) {
  const CampaignGrid grid = shared_grid();
  const CampaignResult plain = run_campaign_streaming(grid, {.workers = 1});
  std::vector<Seen> stream;
  const CampaignResult sunk = run_with_sink(grid, {.workers = 4}, stream);
  EXPECT_EQ(sunk.digest(), plain.digest());
  EXPECT_EQ(sunk.scenario_hash, plain.scenario_hash);
  EXPECT_EQ(strip_workers(sunk.summary(), sunk.workers_used),
            strip_workers(plain.summary(), 1));
}

TEST(StreamingCampaign, FailureSamplesAreTheLowestIndicesAtAnyWorkerCount) {
  // An action budget of 1 fails every scenario, and two more repetitions
  // than kMaxFailuresPerCell fail every cell past its cap: the global and
  // per-cell samples must be the lowest-index failures of the sink's
  // stream, at any worker count.
  CampaignGrid grid = shared_grid();
  grid.sim_options.max_actions = 1;
  grid.seeds = kMaxFailuresPerCell + 2;
  ASSERT_GT(expansion_size(grid), kMaxRecordedFailures);

  std::vector<std::string> reference_samples;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::vector<Seen> stream;
    const CampaignResult result =
        run_with_sink(grid, {.workers = workers}, stream);
    EXPECT_EQ(result.failures, stream.size());
    ASSERT_EQ(result.failure_samples.size(), kMaxRecordedFailures);
    // Sample i describes scenario i (every scenario fails, so the lowest
    // indices are 0..15) and ends with that scenario's own failure text.
    for (std::size_t i = 0; i < result.failure_samples.size(); ++i) {
      const std::string& sample = result.failure_samples[i];
      const Scenario& s = stream[i].scenario;
      EXPECT_EQ(sample.rfind(std::string(core::to_string(s.algorithm)), 0), 0u)
          << sample;
      EXPECT_NE(sample.find(" n=" + std::to_string(s.node_count) +
                            " k=" + std::to_string(s.agent_count)),
                std::string::npos)
          << sample;
      EXPECT_NE(sample.find(" rep=" + std::to_string(s.repetition) + ": " +
                            stream[i].failure),
                std::string::npos)
          << sample;
    }
    for (const auto& [key, stats] : result.cells) {
      ASSERT_GT(stats.runs - stats.successes, kMaxFailuresPerCell);
      ASSERT_EQ(stats.failure_samples.size(), kMaxFailuresPerCell);
      // The cell's lowest indices: its first four repetitions.
      const std::size_t first = stats.failure_samples.front().first;
      EXPECT_EQ(first % grid.seeds, 0u);
      EXPECT_EQ(stats.failure_samples.back().first,
                first + kMaxFailuresPerCell - 1);
    }
    if (reference_samples.empty()) {
      reference_samples = result.failure_samples;
    } else {
      EXPECT_EQ(result.failure_samples, reference_samples);
    }
  }
}

TEST(StreamingCampaign, ExpansionHelpersAgreeWithExpand) {
  for (CampaignGrid grid :
       {shared_grid(), [] {
          // Infeasible combinations must be skipped identically.
          CampaignGrid g;
          g.algorithms = {core::Algorithm::KnownKFull};
          g.families = {ConfigFamily::Packed, ConfigFamily::Periodic};
          g.node_counts = {16, 24};
          g.agent_counts = {2, 4, 5, 6, 20};
          g.symmetries = {1, 2, 3};
          g.seeds = 3;
          return g;
        }()}) {
    const std::vector<Scenario> scenarios = expand(grid);
    const std::vector<CellKey> cells = expand_cells(grid);
    ASSERT_EQ(expansion_size(grid), scenarios.size());
    ASSERT_EQ(cells.size() * grid.seeds, scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const Scenario at = scenario_at(cells, grid.seeds, i);
      EXPECT_EQ(at.index, scenarios[i].index);
      EXPECT_EQ(at.algorithm, scenarios[i].algorithm);
      EXPECT_EQ(at.family, scenarios[i].family);
      EXPECT_EQ(at.scheduler, scenarios[i].scheduler);
      EXPECT_EQ(at.node_count, scenarios[i].node_count);
      EXPECT_EQ(at.agent_count, scenarios[i].agent_count);
      EXPECT_EQ(at.symmetry, scenarios[i].symmetry);
      EXPECT_EQ(at.repetition, scenarios[i].repetition);
    }
  }
}

}  // namespace
}  // namespace udring::exp
