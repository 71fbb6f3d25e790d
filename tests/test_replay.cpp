// Record/replay determinism (the explorer's foundation) and the
// tests/schedules/ regression corpus.
//
//  - For every scheduler kind — the five sim/ families and the three
//    adversaries — recording an execution and replaying its choice sequence
//    must reproduce an identical event-log digest (the PR's round-trip
//    acceptance criterion).
//  - Every trace in tests/schedules/ must replay to its recorded digest and
//    outcome. The corpus pins real executions (including an adversarial
//    fifo-stress schedule) against behavioural drift in the simulator,
//    the schedulers, or the algorithms: any change to the action semantics
//    shows up here as a digest mismatch before it shows up anywhere subtler.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/fuzz.h"
#include "explore/replay.h"
#include "explore/trace.h"
#include "util/rng.h"

namespace udring::explore {
namespace {

/// One fault-free recording of a ring instance.
ScheduleTrace record_ring(core::Algorithm algorithm, std::size_t n,
                          std::vector<std::size_t> homes,
                          ExploreSchedulerKind kind, std::uint64_t seed) {
  RecordRequest request;
  request.algorithm = algorithm;
  request.node_count = n;
  request.homes = std::move(homes);
  request.kind = kind;
  request.seed = seed;
  return record_trace(request);
}

std::vector<std::size_t> draw_instance_homes(std::size_t n, std::size_t k,
                                             std::uint64_t seed) {
  Rng rng(seed);
  return exp::draw_homes(exp::ConfigFamily::RandomAny, n, k, 1, rng);
}

// ---- round-trip determinism for every scheduler kind ------------------------

class RoundTrip : public ::testing::TestWithParam<ExploreSchedulerKind> {};

TEST_P(RoundTrip, RecordThenReplayReproducesDigest) {
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem,
        core::Algorithm::UnknownRelaxed}) {
    const auto homes = draw_instance_homes(18, 5, 11);
    const ScheduleTrace trace =
        record_ring(algorithm, 18, homes, GetParam(), /*seed=*/42);
    EXPECT_EQ(trace.note, "ok") << core::to_string(algorithm) << " under "
                                << to_string(GetParam()) << ": " << trace.note;
    EXPECT_FALSE(trace.choices.empty());

    const ReplayOutcome replayed = replay_trace(trace);
    EXPECT_FALSE(replayed.failed) << replayed.reason;
    EXPECT_EQ(replayed.digest, trace.expected_digest)
        << core::to_string(algorithm) << " under " << to_string(GetParam());
    EXPECT_EQ(replayed.actions, trace.choices.size());
  }
}

TEST_P(RoundTrip, RecordingIsDeterministicPerSeed) {
  const auto homes = draw_instance_homes(16, 4, 3);
  const ScheduleTrace a =
      record_ring(core::Algorithm::KnownKFull, 16, homes, GetParam(), 7);
  const ScheduleTrace b =
      record_ring(core::Algorithm::KnownKFull, 16, homes, GetParam(), 7);
  EXPECT_EQ(a.choices, b.choices);
  EXPECT_EQ(a.expected_digest, b.expected_digest);
}

TEST_P(RoundTrip, TraceSurvivesTextSerialization) {
  const auto homes = draw_instance_homes(14, 4, 5);
  const ScheduleTrace trace =
      record_ring(core::Algorithm::KnownKFull, 14, homes, GetParam(), 9);
  const ScheduleTrace reparsed = ScheduleTrace::parse(trace.to_text());
  EXPECT_EQ(reparsed.algorithm, trace.algorithm);
  EXPECT_EQ(reparsed.node_count, trace.node_count);
  EXPECT_EQ(reparsed.homes, trace.homes);
  EXPECT_EQ(reparsed.choices, trace.choices);
  EXPECT_EQ(reparsed.expected_digest, trace.expected_digest);
  EXPECT_EQ(reparsed.generator, trace.generator);
  EXPECT_EQ(reparsed.faults, trace.faults);

  const ReplayOutcome replayed = replay_trace(reparsed);
  EXPECT_EQ(replayed.digest, trace.expected_digest);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, RoundTrip,
                         ::testing::ValuesIn(all_explore_scheduler_kinds()),
                         [](const auto& info) {
                           std::string name(to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- round-trip determinism for every topology family -----------------------

class TopologyRoundTrip : public ::testing::TestWithParam<FuzzTopology> {};

TEST_P(TopologyRoundTrip, RecordReplayAndTextSurviveNatively) {
  // The PR-3 provenance axis, closed under record → serialize → parse →
  // replay: an instance recorded natively on a ring / Euler-tree /
  // Eulerian-graph virtual ring must round-trip its digest AND its
  // provenance key (execution depends only on the virtual ring size, so the
  // replay runs stand-alone either way).
  Rng rng(29);
  RecordRequest request;
  request.algorithm = core::Algorithm::KnownKFull;
  request.kind = ExploreSchedulerKind::FifoStress;
  request.seed = 5;
  if (GetParam() == FuzzTopology::Ring) {
    request.node_count = 14;
    request.homes = draw_instance_homes(14, 4, 13);
  } else {
    // The same draw the fuzzer and both CLIs use (explore::draw_instance),
    // so this suite round-trips exactly the instance family they emit.
    DrawnInstance drawn = draw_instance(GetParam(), 8, 3, rng);
    request.node_count = drawn.node_count;
    request.homes = std::move(drawn.homes);
    request.topology = std::move(drawn.topology);
  }
  const ScheduleTrace trace = record_trace(request);
  EXPECT_EQ(trace.note, "ok") << trace.note;
  EXPECT_EQ(trace.topology, request.topology.empty()
                                ? "ring"
                                : std::string(request.topology.name()));
  EXPECT_FALSE(trace.choices.empty());

  const ScheduleTrace reparsed = ScheduleTrace::parse(trace.to_text());
  EXPECT_EQ(reparsed.topology, trace.topology);
  EXPECT_EQ(reparsed.node_count, trace.node_count);
  EXPECT_EQ(reparsed.homes, trace.homes);
  EXPECT_EQ(reparsed.choices, trace.choices);

  const ReplayOutcome replayed = replay_trace(reparsed);
  EXPECT_FALSE(replayed.failed) << replayed.reason;
  EXPECT_EQ(replayed.digest, trace.expected_digest);
  EXPECT_EQ(replayed.actions, trace.choices.size());
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyRoundTrip,
                         ::testing::Values(FuzzTopology::Ring,
                                           FuzzTopology::Tree,
                                           FuzzTopology::Graph),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- regression corpus ------------------------------------------------------

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(UDRING_SCHEDULES_DIR)) {
    if (entry.path().extension() == ".trace") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ScheduleCorpus, CoversAdversariesAndEveryTopologyFamily) {
  const auto files = corpus_files();
  EXPECT_GE(files.size(), 7u);
  bool fifo_stress = false;
  bool euler_tree = false;
  bool euler_graph = false;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const ScheduleTrace trace = ScheduleTrace::parse(buffer.str());
    fifo_stress = fifo_stress || trace.generator == "fifo-stress";
    euler_tree = euler_tree || trace.topology == "euler-tree";
    euler_graph = euler_graph || trace.topology == "euler-graph";
  }
  EXPECT_TRUE(fifo_stress)
      << "corpus must include an adversarial fifo-stress trace";
  EXPECT_TRUE(euler_tree) << "corpus must include an euler-tree trace";
  EXPECT_TRUE(euler_graph) << "corpus must include an euler-graph trace";
}

TEST(ScheduleCorpus, EveryTraceReplaysToItsRecordedDigest) {
  for (const auto& file : corpus_files()) {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    SCOPED_TRACE(file.filename().string());
    const ScheduleTrace trace = ScheduleTrace::parse(buffer.str());
    const ReplayOutcome outcome = replay_trace(trace);
    EXPECT_EQ(outcome.digest, trace.expected_digest)
        << "replay departed from the recorded execution";
    EXPECT_EQ(outcome.failed, trace.note != "ok")
        << "outcome drifted: " << outcome.reason;
  }
}

// ---- replay mechanics -------------------------------------------------------

TEST(ReplayScheduler, PadsExhaustedTraceWithFallback) {
  ReplayScheduler scheduler({2, 1});
  scheduler.reset(3);
  const std::vector<sim::AgentId> enabled = {5, 1, 9};
  EXPECT_EQ(scheduler.pick(enabled), 9u);  // sorted {1,5,9}[2]
  EXPECT_EQ(scheduler.pick(enabled), 5u);  // sorted {1,5,9}[1]
  EXPECT_EQ(scheduler.pick(enabled), 1u);  // exhausted -> index 0
  EXPECT_EQ(scheduler.consumed(), 3u);
  // reset() rewinds to the first choice, per the pooled-reuse contract.
  scheduler.reset(3);
  EXPECT_EQ(scheduler.consumed(), 0u);
  EXPECT_EQ(scheduler.pick(enabled), 9u);
}

TEST(ReplayScheduler, ReducesChoicesModuloEnabledCount) {
  ReplayScheduler scheduler({7});
  scheduler.reset(2);
  EXPECT_EQ(scheduler.pick({4, 2}), 4u);  // sorted {2,4}[7 % 2 = 1]
}

TEST(TraceFormat, RejectsMalformedInput) {
  EXPECT_THROW((void)ScheduleTrace::parse(""), std::invalid_argument);
  EXPECT_THROW((void)ScheduleTrace::parse("not-a-trace v1\nend\n"),
               std::invalid_argument);
  // Missing digest line.
  EXPECT_THROW((void)ScheduleTrace::parse("udring-trace v1\nalgorithm "
                                          "known-k-full\nnodes 8\nhomes 0 "
                                          "2\nchoices 0\nend\n"),
               std::invalid_argument);
  // Duplicate home.
  EXPECT_THROW((void)ScheduleTrace::parse("udring-trace v1\nalgorithm "
                                          "known-k-full\nnodes 8\nhomes 2 "
                                          "2\nchoices 0\ndigest 1\nend\n"),
               std::invalid_argument);
  // Unknown key.
  EXPECT_THROW((void)ScheduleTrace::parse("udring-trace v1\nbogus 1\nend\n"),
               std::invalid_argument);
  // Corrupt token inside a list must be a parse error, not a silent
  // truncation (a truncated choice list would replay a different schedule).
  EXPECT_THROW((void)ScheduleTrace::parse(
                   "udring-trace v1\nalgorithm known-k-full\nnodes 8\nhomes 0 "
                   "2\nchoices 3 4 oops 5\ndigest 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ScheduleTrace::parse(
                   "udring-trace v1\nalgorithm known-k-full\nnodes 8\nhomes 0 "
                   "x\nchoices 0\ndigest 1\nend\n"),
               std::invalid_argument);
  // Trailing garbage after a scalar value.
  EXPECT_THROW((void)ScheduleTrace::parse(
                   "udring-trace v1\nalgorithm known-k-full\nnodes 8 "
                   "9\nhomes 0 2\nchoices 0\ndigest 1\nend\n"),
               std::invalid_argument);
  // Duplicate keys (e.g. a second choices line) must not concatenate.
  EXPECT_THROW((void)ScheduleTrace::parse(
                   "udring-trace v1\nalgorithm known-k-full\nnodes 8\nhomes 0 "
                   "2\nchoices 1 2\nchoices 3\ndigest 1\nend\n"),
               std::invalid_argument);

  // Signs and out-of-range values: `>>` into an unsigned field accepts a
  // leading '-' and wraps it — max-actions -1 became 2^64-1, choices -1
  // replayed choice 4294967295, negative fault times never fired, and
  // nodes -16 got past the parser. Every numeric token must be a plain
  // unsigned decimal that fits its field.
  const auto trace_with = [](const std::string& key, const std::string& value) {
    const std::vector<std::pair<std::string, std::string>> lines = {
        {"algorithm", "known-k-full"}, {"nodes", "8"},   {"homes", "0 2"},
        {"seed", "1"},                 {"choices", "0 1"}, {"digest", "1"}};
    std::string text = "udring-trace v1\n";
    bool replaced = false;
    for (const auto& [line_key, line_value] : lines) {
      replaced = replaced || line_key == key;
      text += line_key + " " + (line_key == key ? value : line_value) + "\n";
    }
    if (!replaced) text += key + " " + value + "\n";
    return text + "end\n";
  };
  EXPECT_NO_THROW((void)ScheduleTrace::parse(trace_with("max-actions", "9")));
  const std::vector<std::pair<std::string, std::string>> bad_numbers = {
      {"max-actions", "-1"},    {"choices", "0 -1"},
      {"choices", "4294967296"}, {"fault-crashes", "0@-1"},
      {"fault-rewires", "-3"},  {"fault-drops", "1@-2"},
      {"seed", "-1"},           {"digest", "-1"},
      {"nodes", "-16"},         {"homes", "0 -2"},
      {"gather-g", "-1"},       {"fault-min-phase", "-1"},
      {"fault-non-fifo", "-1"}, {"fault-non-fifo-window", "+5"},
      {"max-actions", "18446744073709551616"}};
  for (const auto& [key, value] : bad_numbers) {
    EXPECT_THROW((void)ScheduleTrace::parse(trace_with(key, value)),
                 std::invalid_argument)
        << key << ' ' << value;
  }
}

}  // namespace
}  // namespace udring::explore
