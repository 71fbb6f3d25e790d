// Tests for durable sharded campaigns (exp/shard.h) and the mergeable
// quantile sketch under them (util/quantile_sketch.h).
//
// The claims pinned here extend the engine's determinism contract across
// process and crash boundaries:
//  - load(encode(shard)) is the identity, and corrupt bytes fail loudly;
//  - N shards merged == the single uninterrupted run, byte for byte
//    (digest AND summary), at worker counts {1, 4};
//  - kill-and-resume at ANY checkpoint watermark reproduces the
//    uninterrupted digest (a scenario sink that throws simulates the kill
//    with exactly the on-disk state a real one leaves);
//  - merges reject what they must: overlapping ranges, gaps, foreign
//    fingerprints, saturated sums.

#include "exp/shard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "exp/campaign.h"
#include "util/io.h"
#include "util/quantile_sketch.h"
#include "util/rng.h"

namespace udring::exp {
namespace {

CampaignGrid small_grid() {
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull,
                     core::Algorithm::UnknownRelaxed};
  grid.families = {ConfigFamily::RandomAny};
  grid.schedulers = {sim::SchedulerKind::RoundRobin,
                     sim::SchedulerKind::Random};
  grid.node_counts = {16, 24};
  grid.agent_counts = {2, 4};
  grid.seeds = 3;
  grid.base_seed = 11;
  return grid;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---- quantile sketch --------------------------------------------------------

TEST(QuantileSketch, ExactBelow256) {
  QuantileSketch sketch;
  for (std::uint64_t v = 1; v <= 100; ++v) sketch.add(v);
  EXPECT_EQ(sketch.total(), 100u);
  EXPECT_EQ(sketch.min(), 1u);
  EXPECT_EQ(sketch.max(), 100u);
  // rank floor(q * 99) lands exactly on the order statistic: one bucket per
  // value below 256, so no interpolation error at all.
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 100.0);
}

TEST(QuantileSketch, LogBucketsBoundRelativeError) {
  QuantileSketch sketch;
  for (std::uint64_t v = 1000; v <= 100000; v += 1000) sketch.add(v);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double estimate = sketch.quantile(q);
    const std::uint64_t exact =
        1000 * (1 + static_cast<std::uint64_t>(q * 99.0));
    EXPECT_NEAR(estimate, static_cast<double>(exact),
                static_cast<double>(exact) / 16.0 + 1.0)
        << "q=" << q;
  }
}

TEST(QuantileSketch, MergeEqualsWholeUnderAnyPartition) {
  QuantileSketch whole, a, b, c;
  for (std::uint64_t v = 0; v < 3000; ++v) {
    const std::uint64_t value = (v * 2654435761u) % 100000;
    whole.add(value);
    (v % 3 == 0 ? a : v % 3 == 1 ? b : c).add(value);
  }
  QuantileSketch merged = c;  // deliberately out of order: merge commutes
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged, whole);
}

TEST(QuantileSketch, MergeOverflowThrowsAtTheBoundary) {
  const std::uint64_t half = std::numeric_limits<std::uint64_t>::max() / 2 + 1;
  QuantileSketch a, b;
  a.add(7, half);
  b.add(7, half - 1);
  QuantileSketch almost = a;
  almost.merge(b);  // 2^64 - 1 observations: the exact boundary, still fine
  EXPECT_EQ(almost.total(), std::numeric_limits<std::uint64_t>::max());
  QuantileSketch one;
  one.add(7, 1);
  EXPECT_THROW(almost.merge(one), std::overflow_error);
}

TEST(QuantileSketch, FromEntriesRejectsCorruptState) {
  using Entry = QuantileSketch::Entry;
  const auto reject = [](std::vector<Entry> entries, std::uint64_t lo,
                         std::uint64_t hi) {
    EXPECT_THROW(
        static_cast<void>(QuantileSketch::from_entries(std::move(entries), lo,
                                                       hi)),
        std::invalid_argument);
  };
  reject({{5, 1}, {5, 1}}, 5, 5);                          // duplicate bucket
  reject({{9, 1}, {5, 1}}, 5, 9);                          // unsorted
  reject({{QuantileSketch::kBucketCount, 1}}, 0, 0);       // out of universe
  reject({{5, 0}}, 5, 5);                                  // zero count
  reject({{5, 1}}, 6, 6);                                  // min off-bucket
  reject({}, 0, 0);  // empty needs sentinel extremes
  // The valid round-trip, for contrast.
  QuantileSketch sketch;
  sketch.add(5);
  sketch.add(300);
  const QuantileSketch rebuilt = QuantileSketch::from_entries(
      sketch.entries(), sketch.min(), sketch.max());
  EXPECT_EQ(rebuilt, sketch);
}

// ---- shard file round-trip and validation -----------------------------------

TEST(ShardFile, EncodeDecodeRoundTrip) {
  const CampaignGrid grid = small_grid();
  const ShardFile shard = run_campaign_shard(grid, {.workers = 2}, 0, 2);
  const std::string bytes = encode_shard(shard);
  const ShardFile loaded = decode_shard(bytes, "roundtrip");
  EXPECT_EQ(loaded.fingerprint, shard.fingerprint);
  EXPECT_EQ(loaded.scenario_total, shard.scenario_total);
  EXPECT_EQ(loaded.range_begin, shard.range_begin);
  EXPECT_EQ(loaded.range_end, shard.range_end);
  EXPECT_EQ(loaded.aggregate.scenario_hash, shard.aggregate.scenario_hash);
  EXPECT_EQ(loaded.aggregate.failures, shard.aggregate.failures);
  EXPECT_EQ(loaded.aggregate.failure_samples, shard.aggregate.failure_samples);
  ASSERT_EQ(loaded.aggregate.cells.size(), shard.aggregate.cells.size());
  auto expected = shard.aggregate.cells.begin();
  for (const auto& [key, stats] : loaded.aggregate.cells) {
    EXPECT_EQ(key, expected->first);
    EXPECT_EQ(stats.moves_sum, expected->second.moves_sum);
    EXPECT_EQ(stats.moves_sketch, expected->second.moves_sketch);
    EXPECT_EQ(stats.makespan_sketch, expected->second.makespan_sketch);
    ++expected;
  }
  // And the encoding is canonical: re-encoding the decoded shard is
  // byte-identical.
  EXPECT_EQ(encode_shard(loaded), bytes);
}

TEST(ShardFile, DecodeRejectsCorruptBytes) {
  const CampaignGrid grid = small_grid();
  const std::string bytes =
      encode_shard(run_campaign_shard(grid, {.workers = 1}, 0, 1));

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(static_cast<void>(decode_shard(bad_magic, "bad-magic")),
               std::runtime_error);

  std::string bad_version = bytes;
  bad_version[4] = 99;
  EXPECT_THROW(static_cast<void>(decode_shard(bad_version, "bad-version")),
               std::runtime_error);

  EXPECT_THROW(static_cast<void>(decode_shard(
                   std::string_view(bytes).substr(0, bytes.size() / 2),
                   "truncated")),
               std::runtime_error);

  EXPECT_THROW(static_cast<void>(decode_shard(bytes + "trailing", "trailing")),
               std::runtime_error);

  EXPECT_THROW(static_cast<void>(decode_shard("", "empty")),
               std::runtime_error);
}

TEST(ShardFile, DecodeRejectsNonzeroRetiredWords) {
  const std::string bytes =
      encode_shard(run_campaign_shard(small_grid(), {.workers = 1}, 0, 1));
  const ShardFile shard = decode_shard(bytes);
  // The offsets below assume no failure samples and a crash-free first key.
  ASSERT_TRUE(shard.aggregate.failure_samples.empty());
  ASSERT_TRUE(shard.aggregate.cells.begin()->first.fault.crashes.empty());
  const auto expect_named = [&bytes](std::size_t offset,
                                     const std::string& word) {
    std::string bad = bytes;
    ASSERT_EQ(bad.at(offset), '\0') << word;
    bad[offset] = 1;
    try {
      (void)decode_shard(bad, "retired");
      ADD_FAILURE() << "accepted a nonzero " << word;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("word '" + word + "' is nonzero"),
                std::string::npos)
          << message;
    }
  };
  // Header: magic and version (4 bytes each), six u64 fields, then the
  // three retired words.
  constexpr std::size_t kHeaderRetired = 8 + 6 * 8;
  expect_named(kHeaderRetired, "cells_skipped");
  expect_named(kHeaderRetired + 8, "scenarios_skipped");
  expect_named(kHeaderRetired + 16, "skipped_cell_samples count");
  // The first cell key follows the scenario hash, the failure count, the
  // empty sample list and the cell count. Its retired words come after
  // three enum bytes, n, k, l, the problem (1 + 8 bytes), the empty crash
  // list, the non-FIFO flag and its phase.
  constexpr std::size_t kFirstKey = kHeaderRetired + 3 * 8 + 4 * 8;
  constexpr std::size_t kKeyRetired = kFirstKey + 3 + 3 * 8 + 9 + 8 + 9;
  const char* const words[] = {"non_fifo_until_action", "drop_count",
                               "drop_from_action", "dup_count",
                               "dup_from_action"};
  for (std::size_t i = 0; i < 5; ++i) {
    expect_named(kKeyRetired + 8 * i, words[i]);
  }
}

TEST(ShardFile, WriteAndLoadFile) {
  const std::string path = temp_path("shard_io.bin");
  const ShardFile shard =
      run_campaign_shard(small_grid(), {.workers = 1}, 1, 3);
  write_shard_file(path, shard);
  const ShardFile loaded = load_shard_file(path);
  EXPECT_EQ(encode_shard(loaded), encode_shard(shard));
  std::remove(path.c_str());
  EXPECT_THROW(static_cast<void>(load_shard_file(path)), std::runtime_error);
}

// ---- shard × merge == whole -------------------------------------------------

TEST(ShardMerge, ThreeShardsMergeToTheWholeAcrossWorkers) {
  const CampaignGrid grid = small_grid();
  const CampaignResult reference = run_campaign_streaming(grid, {.workers = 1});
  ASSERT_GT(reference.scenario_count, 0u);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    CampaignOptions options;
    options.workers = workers;
    std::vector<ShardFile> shards;
    for (std::size_t i = 0; i < 3; ++i) {
      shards.push_back(run_campaign_shard(grid, options, i, 3));
    }
    // Shards tile [0, S) exactly.
    EXPECT_EQ(shards.front().range_begin, 0u);
    EXPECT_EQ(shards.back().range_end, shards.back().scenario_total);
    const CampaignResult merged = merge_shards(std::move(shards));
    EXPECT_EQ(merged.digest(), reference.digest()) << "workers=" << workers;
    EXPECT_EQ(merged.scenario_count, reference.scenario_count);
    EXPECT_EQ(merged.scenario_hash, reference.scenario_hash);
  }
}

TEST(ShardMerge, FailureSamplesSelectLowestIndicesAcrossShards) {
  // Fail every scenario; the merged global samples must be the lowest
  // scenario indices of the WHOLE sweep regardless of which shard ran them.
  CampaignGrid grid = small_grid();
  grid.sim_options.max_actions = 1;
  CampaignOptions options;
  options.workers = 2;
  options.max_recorded_failures = 5;
  options.max_failures_per_cell = 2;
  const CampaignResult reference = run_campaign_streaming(grid, options);
  std::vector<ShardFile> shards;
  for (std::size_t i = 0; i < 4; ++i) {
    shards.push_back(run_campaign_shard(grid, options, i, 4));
  }
  const CampaignResult merged = merge_shards(std::move(shards));
  EXPECT_EQ(merged.failures, reference.failures);
  EXPECT_EQ(merged.failure_samples, reference.failure_samples);
  EXPECT_EQ(merged.digest(), reference.digest());
}

TEST(ShardMerge, RejectsOverlappingRanges) {
  const CampaignGrid grid = small_grid();
  std::vector<ShardFile> shards;
  shards.push_back(run_campaign_shard(grid, {}, 0, 2));
  shards.push_back(run_campaign_shard(grid, {}, 1, 2));
  shards.push_back(run_campaign_shard(grid, {}, 1, 2));  // double-submitted
  try {
    static_cast<void>(merge_shards(std::move(shards)));
    FAIL() << "overlapping shards must not merge";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("overlap"), std::string::npos)
        << error.what();
  }
}

TEST(ShardMerge, RejectsGapsUnlessPartialAllowed) {
  const CampaignGrid grid = small_grid();
  std::vector<ShardFile> shards;
  shards.push_back(run_campaign_shard(grid, {}, 0, 3));
  shards.push_back(run_campaign_shard(grid, {}, 2, 3));  // shard 1 missing
  std::vector<ShardFile> copy;
  for (const ShardFile& shard : shards) {
    copy.push_back(decode_shard(encode_shard(shard)));
  }
  EXPECT_THROW(static_cast<void>(merge_shards(std::move(copy))),
               std::runtime_error);
  const CampaignResult partial =
      merge_shards(std::move(shards), /*allow_partial=*/true);
  EXPECT_EQ(partial.scenario_count,
            expansion_size(grid) - expansion_size(grid) / 3);
}

TEST(ShardMerge, RejectsForeignFingerprint) {
  CampaignGrid grid = small_grid();
  std::vector<ShardFile> shards;
  shards.push_back(run_campaign_shard(grid, {}, 0, 2));
  grid.base_seed = 999;  // a different sweep
  shards.push_back(run_campaign_shard(grid, {}, 1, 2));
  try {
    static_cast<void>(merge_shards(std::move(shards)));
    FAIL() << "foreign shards must not merge";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"), std::string::npos)
        << error.what();
  }
}

TEST(ShardMerge, RejectsEmptyInput) {
  EXPECT_THROW(static_cast<void>(merge_shards({})), std::invalid_argument);
}

TEST(ShardMerge, SaturatedSumsFailLoudly) {
  // Drive moves_sum to the uint64 boundary via the public merge path: two
  // decoded shards whose sums together exceed 2^64 must throw, not wrap.
  const CampaignGrid grid = small_grid();
  ShardFile a = run_campaign_shard(grid, {}, 0, 2);
  ShardFile b = run_campaign_shard(grid, {}, 1, 2);
  ASSERT_FALSE(a.aggregate.cells.empty());
  // Same cell on both sides (the ranges cover disjoint cells, so plant the
  // colliding sum under a's first key in b too).
  const CellKey key = a.aggregate.cells.begin()->first;
  a.aggregate.cells[key].moves_sum =
      std::numeric_limits<std::uint64_t>::max() - 1;
  b.aggregate.cells[key].moves_sum = 2;  // max - 1 + 2 wraps
  std::vector<ShardFile> shards;
  shards.push_back(std::move(a));
  shards.push_back(std::move(b));
  try {
    static_cast<void>(merge_shards(std::move(shards)));
    FAIL() << "saturated merge must throw";
  } catch (const std::overflow_error& error) {
    EXPECT_NE(std::string(error.what()).find("moves_sum"), std::string::npos)
        << error.what();
  }
}

// ---- fingerprint ------------------------------------------------------------

/// fold64 over every byte of `bytes`, starting from 0.
std::uint64_t fold_bytes(const std::string& bytes) {
  std::uint64_t state = 0;
  for (const unsigned char byte : bytes) fold64(state, byte);
  return state;
}

TEST(GridFingerprint, CoversResultsNotExecutionKnobs) {
  const CampaignGrid grid = small_grid();
  const CampaignOptions options;
  const std::uint64_t base = grid_fingerprint(grid, options);
  // Pinned values: shard files written by earlier builds must keep merging
  // with new ones, so neither the fingerprint nor a shard byte may move.
  EXPECT_EQ(base, 0xf3a24814a358f6faULL) << std::hex << base;
  CampaignGrid non_fifo = grid;
  non_fifo.sim_options.faults.non_fifo = true;
  non_fifo.sim_options.faults.non_fifo_min_phase = 1;
  EXPECT_EQ(grid_fingerprint(non_fifo, options), 0xc95940139110e680ULL)
      << std::hex << grid_fingerprint(non_fifo, options);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const std::string bytes =
        encode_shard(run_campaign_shard(grid, {.workers = workers}, 0, 1));
    EXPECT_EQ(bytes.size(), 3872u) << "workers=" << workers;
    EXPECT_EQ(fold_bytes(bytes), 0x4f80d3494c500df1ULL)
        << "workers=" << workers << std::hex << " " << fold_bytes(bytes);
    const std::string faulty =
        encode_shard(run_campaign_shard(non_fifo, {.workers = workers}, 0, 1));
    EXPECT_EQ(faulty.size(), 3942u) << "workers=" << workers;
    EXPECT_EQ(fold_bytes(faulty), 0xd48d984eea0a0950ULL)
        << "workers=" << workers << std::hex << " " << fold_bytes(faulty);
  }
  // A scenario sink only watches: the shard beside it is byte-identical.
  std::atomic<std::size_t> sunk{0};
  CampaignOptions watched;
  watched.workers = 4;
  watched.scenario_sink = [&sunk](const Scenario&, const ScenarioResult&) {
    sunk.fetch_add(1, std::memory_order_relaxed);
  };
  EXPECT_EQ(fold_bytes(encode_shard(run_campaign_shard(grid, watched, 0, 1))),
            0x4f80d3494c500df1ULL);
  EXPECT_EQ(sunk.load(), expansion_size(grid));

  CampaignOptions threaded = options;
  threaded.workers = 7;
  threaded.checkpoint_every_scenarios = 5;
  threaded.checkpoint_path = "somewhere.bin";
  threaded.scenario_sink = [](const Scenario&, const ScenarioResult&) {};
  EXPECT_EQ(grid_fingerprint(grid, threaded), base)
      << "execution knobs must not change the fingerprint";

  CampaignGrid reseeded = grid;
  reseeded.base_seed = 999;
  EXPECT_NE(grid_fingerprint(reseeded, options), base);

  CampaignGrid regridded = grid;
  regridded.node_counts.push_back(32);
  EXPECT_NE(grid_fingerprint(regridded, options), base);

  CampaignOptions recapped = options;
  recapped.max_failures_per_cell += 1;
  EXPECT_NE(grid_fingerprint(grid, recapped), base)
      << "sample caps change merged bytes, so they are in the fingerprint";
}

TEST(GridFingerprint, FaultAxisLayoutsArePinned) {
  // A fault axis of {none, crash 1@3, rewire {4}, non-FIFO from phase 1}:
  // every plan folds into the fingerprint, the digest and the shard's cell
  // keys, so those layouts are pinned here as well.
  CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull,
                     core::Algorithm::KnownKLogMem};
  grid.schedulers = {sim::SchedulerKind::RoundRobin,
                     sim::SchedulerKind::Random};
  grid.node_counts = {12, 16};
  grid.agent_counts = {3};
  grid.seeds = 2;
  grid.base_seed = 5;
  sim::FaultPlan crash;
  crash.crashes = {{1, 3}};
  sim::FaultPlan rewire;
  rewire.rewire_at = {4};
  sim::FaultPlan non_fifo;
  non_fifo.non_fifo = true;
  non_fifo.non_fifo_min_phase = 1;
  grid.fault_plans = {{}, crash, rewire, non_fifo};

  const std::uint64_t fingerprint = grid_fingerprint(grid, {});
  EXPECT_EQ(fingerprint, 0x23822f54c7850ea6ULL) << std::hex << fingerprint;
  const CampaignResult result = run_campaign_streaming(grid, {.workers = 2});
  EXPECT_EQ(result.cells.size(), 32u);
  EXPECT_EQ(result.digest(), 0x3440d2d69dd45b87ULL)
      << std::hex << result.digest();
  const std::string bytes =
      encode_shard(run_campaign_shard(grid, {.workers = 2}, 0, 1));
  EXPECT_EQ(bytes.size(), 13868u);
  EXPECT_EQ(fold_bytes(bytes), 0x3929b57793da72daULL)
      << std::hex << fold_bytes(bytes);
}

// ---- checkpoint / crash-resume ----------------------------------------------

/// Thrown by kill_at's sink: stands in for a process killed mid-block.
struct SimulatedKill {};

/// A scenario sink that "kills" the run at the first scenario at or past
/// `watermark`. The block holding that scenario is never folded, so the
/// checkpoint on disk is the one a process killed there would leave.
[[nodiscard]] std::function<void(const Scenario&, const ScenarioResult&)>
kill_at(std::size_t watermark) {
  return [watermark](const Scenario& scenario, const ScenarioResult&) {
    if (scenario.index >= watermark) throw SimulatedKill{};
  };
}

TEST(Checkpoint, KillAndResumeReproducesTheUninterruptedDigest) {
  const CampaignGrid grid = small_grid();
  const CampaignResult reference = run_campaign_streaming(grid, {.workers = 2});
  const std::size_t total = expansion_size(grid);
  ASSERT_GT(total, 8u);

  // Kill at several distinct watermarks: after the 1st, 2nd and 5th
  // checkpoint write of 4-scenario blocks.
  for (const std::size_t abort_after : {std::size_t{1}, std::size_t{2},
                                        std::size_t{5}}) {
    const std::string path =
        temp_path("resume_" + std::to_string(abort_after) + ".bin");
    std::remove(path.c_str());
    CampaignOptions options;
    options.workers = 2;
    options.checkpoint_path = path;
    options.checkpoint_every_scenarios = 4;
    options.scenario_sink = kill_at(abort_after * 4);
    EXPECT_THROW(static_cast<void>(run_campaign_streaming(grid, options)),
                 SimulatedKill)
        << "abort_after=" << abort_after;
    // The file on disk is a valid partial shard at the watermark.
    const ShardFile partial = load_shard_file(path);
    EXPECT_EQ(partial.range_end, abort_after * 4);

    // Resume: same grid, same options, no kill. Must complete from the
    // watermark and land on the uninterrupted bytes.
    options.scenario_sink = nullptr;
    const CampaignResult resumed = run_campaign_streaming(grid, options);
    EXPECT_EQ(resumed.digest(), reference.digest())
        << "abort_after=" << abort_after;
    EXPECT_EQ(resumed.scenario_count, reference.scenario_count);
    const ShardFile final_shard = load_shard_file(path);
    EXPECT_EQ(final_shard.range_end, final_shard.scenario_total);
    std::remove(path.c_str());
  }
}

TEST(Checkpoint, RepeatedKillsAcrossOneSweepStillConverge) {
  // Crash after EVERY block: each run makes one block of progress; the sweep
  // still finishes and matches, proving no watermark loses or repeats work.
  const CampaignGrid grid = small_grid();
  const CampaignResult reference = run_campaign_streaming(grid, {.workers = 1});
  const std::string path = temp_path("repeated_kills.bin");
  std::remove(path.c_str());
  CampaignOptions options;
  options.workers = 1;
  options.checkpoint_path = path;
  options.checkpoint_every_scenarios = 7;
  CampaignResult final_result;
  for (std::size_t attempt = 0; attempt < 1000; ++attempt) {
    // Kill one block past the watermark this attempt resumes from.
    std::size_t watermark = 0;
    if (const std::optional<std::string> bytes = read_binary_file(path)) {
      watermark = static_cast<std::size_t>(decode_shard(*bytes).range_end);
    }
    options.scenario_sink = kill_at(watermark + 7);
    try {
      final_result = run_campaign_streaming(grid, options);
      break;
    } catch (const SimulatedKill&) {
      continue;  // next attempt resumes from the file
    }
  }
  EXPECT_EQ(final_result.digest(), reference.digest());
  std::remove(path.c_str());
}

TEST(Checkpoint, FinalFileOnlyWhenEveryIsZero) {
  const CampaignGrid grid = small_grid();
  const std::string path = temp_path("final_only.bin");
  std::remove(path.c_str());
  CampaignOptions options;
  options.checkpoint_path = path;
  const CampaignResult result = run_campaign_streaming(grid, options);
  const ShardFile shard = load_shard_file(path);
  EXPECT_EQ(shard.range_begin, 0u);
  EXPECT_EQ(shard.range_end, shard.scenario_total);
  EXPECT_EQ(shard.scenario_total, result.scenario_count);
  // A completed checkpoint resumes to an instant no-op with the same result.
  const CampaignResult again = run_campaign_streaming(grid, options);
  EXPECT_EQ(again.digest(), result.digest());
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumingAForeignSweepThrows) {
  const CampaignGrid grid = small_grid();
  const std::string path = temp_path("foreign.bin");
  std::remove(path.c_str());
  CampaignOptions options;
  options.checkpoint_path = path;
  static_cast<void>(run_campaign_streaming(grid, options));
  CampaignGrid other = small_grid();
  other.base_seed = 12345;
  try {
    static_cast<void>(run_campaign_streaming(other, options));
    FAIL() << "resuming a different sweep's checkpoint must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptCheckpointFailsTheResumeLoudly) {
  const CampaignGrid grid = small_grid();
  const std::string path = temp_path("corrupt.bin");
  ASSERT_TRUE(write_binary_file_atomic(path, "not a shard file at all"));
  CampaignOptions options;
  options.checkpoint_path = path;
  EXPECT_THROW(static_cast<void>(run_campaign_streaming(grid, options)),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---- range primitive --------------------------------------------------------

TEST(CampaignRange, PartitionFoldsMatchTheWhole) {
  const CampaignGrid grid = small_grid();
  const CampaignOptions options{.workers = 2};
  const std::size_t total = expansion_size(grid);
  CampaignAccumulator whole;
  static_cast<void>(run_campaign_range(grid, options, 0, total, whole));
  // An uneven 3-way partition, folded out of order.
  CampaignAccumulator pieces;
  static_cast<void>(
      run_campaign_range(grid, options, total / 2, total, pieces));
  static_cast<void>(run_campaign_range(grid, options, 0, 1, pieces));
  static_cast<void>(run_campaign_range(grid, options, 1, total / 2, pieces));
  EXPECT_EQ(pieces.scenario_hash, whole.scenario_hash);
  EXPECT_EQ(pieces.failures, whole.failures);
  EXPECT_EQ(pieces.cells.size(), whole.cells.size());
  EXPECT_EQ(pieces.failure_samples, whole.failure_samples);
}

TEST(CampaignRange, OutOfRangeThrows) {
  const CampaignGrid grid = small_grid();
  const std::size_t total = expansion_size(grid);
  CampaignAccumulator acc;
  EXPECT_THROW(
      static_cast<void>(run_campaign_range(grid, {}, 0, total + 1, acc)),
      std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_campaign_range(grid, {}, 5, 4, acc)),
               std::invalid_argument);
}

}  // namespace
}  // namespace udring::exp
