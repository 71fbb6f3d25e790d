// The three tools end to end: what udring_fuzz, udring_mc and
// udring_campaign print, exit with and write, checked against the library
// calls their flags name. The library's own results at these instances are
// pinned beside the library tests (test_explore, test_mc, test_shard and
// bench_campaign_engine); the flag checks live in test_table_cli.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "explore/fuzz.h"
#include "mc/model_check.h"
#include "util/rng.h"

namespace udring {
namespace {

namespace fs = std::filesystem;

struct ToolRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

ToolRun run_tool(const std::string& binary, const std::string& args) {
  const std::string command = binary + " " + args + " 2>&1";
  ToolRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) != 0) {
    run.output.append(buffer, got);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// An empty directory for one test's files, unique to this process.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) /
                       ("udring-" + name + "-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

// ---- udring_fuzz ------------------------------------------------------------

TEST(UdringFuzz, PrintsTheReportRunFuzzReturns) {
  // The report line is run_fuzz's report for the options the flags name
  // (the default instance ranges and scheduler pool, --seed, --workers, the
  // oracle, the non-FIFO fault), and the tool exits 1 exactly when an
  // iteration failed.
  explore::FuzzOptions passing;
  passing.algorithm = core::Algorithm::KnownKLogMem;
  passing.iterations = 150;
  std::vector<std::pair<std::string, explore::FuzzOptions>> cases;
  const std::string pass_flags =
      "--algorithm=known-k-logmem --iterations=150 --seed=1 ";
  passing.workers = 1;
  cases.emplace_back(pass_flags + "--workers=1", passing);
  passing.workers = 3;
  cases.emplace_back(pass_flags + "--workers=3", passing);
  passing.workers = 0;
  passing.oracle = explore::OracleMode::Incremental;
  cases.emplace_back(pass_flags + "--oracle=incremental", passing);
  explore::FuzzOptions failing;
  failing.algorithm = core::Algorithm::KnownKLogMemStrict;
  failing.faults.non_fifo = true;
  failing.iterations = 200;
  failing.workers = 3;
  cases.emplace_back(
      "--algorithm=known-k-logmem-strict --inject-non-fifo --iterations=200 "
      "--seed=1 --workers=3",
      failing);
  for (const auto& [flags, options] : cases) {
    const explore::FuzzReport report = explore::run_fuzz(options);
    std::ostringstream want;
    want << "fuzz: algorithm=" << core::to_string(options.algorithm)
         << " oracle=" << explore::to_string(options.oracle)
         << " iterations=" << report.iterations
         << " actions=" << report.total_actions
         << " failures=" << report.failures << " digest=" << report.digest;
    const ToolRun run = run_tool(UDRING_FUZZ_BINARY, flags);
    EXPECT_EQ(first_line(run.output), want.str()) << flags;
    EXPECT_EQ(run.exit_code, report.failures == 0 ? 0 : 1) << flags;
  }
}

TEST(UdringFuzz, FaultBudgetCounterexamplesReplay) {
  // Under crash and rewiring budgets, on rings and on Euler-tour tree rings,
  // failures are measured degradation, not errors: each run exits 0 or 1,
  // and every shrunk trace it writes under --out replays through --replay.
  const fs::path dir = fresh_dir("fault-artifacts");
  for (const char* faults :
       {"--faults=crash=1", "--faults=rewire=2",
        "--faults=crash=1 --topology=tree",
        "--faults=rewire=2 --topology=tree"}) {
    const ToolRun run =
        run_tool(UDRING_FUZZ_BINARY, std::string(faults) +
                                         " --iterations=100 --out=" +
                                         dir.string());
    EXPECT_TRUE(run.exit_code == 0 || run.exit_code == 1)
        << faults << " exited " << run.exit_code << ":\n"
        << run.output;
  }
  std::size_t traces = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    ++traces;
    const ToolRun replay =
        run_tool(UDRING_FUZZ_BINARY, "--replay=" + entry.path().string());
    EXPECT_EQ(replay.exit_code, 0) << replay.output;
  }
  EXPECT_GT(traces, 0u);
  fs::remove_all(dir);
}

// ---- udring_mc --------------------------------------------------------------

TEST(UdringMc, PrintsTheReportMcCheckReturns) {
  // The report lines are mc::check's report for the instance the flags draw
  // (--seed=1 by default), serially and sharded, with hash compaction's
  // collision bound beside the verdict, and a verified closure exits 0.
  struct Case {
    std::string flags;
    core::Algorithm algorithm;
    mc::McOptions options;
  };
  mc::McOptions sharded;
  sharded.frontier_target = 8;
  sharded.workers = 0;
  const Case cases[] = {
      {"--algo=known-k-full --n=8 --k=3", core::Algorithm::KnownKFull, {}},
      {"--algo=known-k-full --n=8 --k=3 --frontier=8 --workers=0",
       core::Algorithm::KnownKFull, sharded},
      {"--algo=known-k-logmem --n=8 --k=3", core::Algorithm::KnownKLogMem,
       {}}};
  for (const auto& [flags, algorithm, options] : cases) {
    Rng rng(1);
    const explore::DrawnInstance drawn =
        explore::draw_instance(explore::FuzzTopology::Ring, 8, 3, rng);
    mc::CheckRequest request;
    request.algorithm = algorithm;
    request.node_count = drawn.node_count;
    request.homes = drawn.homes;
    const mc::ModelCheckReport report = mc::check(request, options);
    const mc::McStats& s = report.stats;
    std::ostringstream want;
    want << "verdict: " << report.verdict
         << (report.complete ? " (complete)" : " (incomplete)")
         << "   collision bound: " << mc::collision_bound(s.states_expanded)
         << '\n'
         << "schedules explored: " << s.schedules
         << "   states expanded: " << s.states_expanded
         << "   deduped: " << s.states_deduped << '\n'
         << "actions: " << s.total_actions << "   replays: " << s.replays
         << "   max depth: " << s.max_depth << "   shards: " << s.shards
         << '\n';
    const ToolRun run = run_tool(UDRING_MC_BINARY, flags);
    EXPECT_NE(run.output.find(want.str()), std::string::npos)
        << flags << "\nwant:\n"
        << want.str() << "got:\n"
        << run.output;
    EXPECT_EQ(run.exit_code, report.verdict == "verified" ? 0 : 1) << flags;
  }
}

TEST(UdringMc, ViolationsWriteCounterexamplesThatReplay) {
  // A violation exits 1 and --out writes its counterexample, which
  // udring_fuzz --replay reproduces: the planted non-FIFO race on the
  // deployment stress instance (found ~150 actions in; the budget only
  // bounds a walk that misses it), and a crash-stop fault budget. A
  // rewiring budget reaches a verdict as well: exit 0 or 1, never a usage
  // error or an exhausted budget.
  const fs::path dir = fresh_dir("mc-artifacts");
  const std::string out = " --out=" + dir.string();
  const ToolRun planted = run_tool(
      UDRING_MC_BINARY,
      "--algo=known-k-logmem-strict --n=12 --homes=0,1,3,6,7,10 "
      "--inject-non-fifo --fault-min-phase=1 --budget=2000000" + out);
  EXPECT_EQ(planted.exit_code, 1) << planted.output;
  const ToolRun planted_replay = run_tool(
      UDRING_FUZZ_BINARY,
      "--replay=" +
          (dir / "mc-counterexample-known-k-logmem-strict.trace").string());
  EXPECT_EQ(planted_replay.exit_code, 0) << planted_replay.output;

  const std::string instance = "--algo=known-k-full --n=6 --k=2 --homes=0,3 ";
  const ToolRun crash = run_tool(
      UDRING_MC_BINARY,
      instance + "--fault-budget=crash=1 --fault-max-action=4" + out);
  EXPECT_EQ(crash.exit_code, 1) << crash.output;
  const ToolRun crash_replay = run_tool(
      UDRING_FUZZ_BINARY,
      "--replay=" + (dir / "mc-counterexample-known-k-full.trace").string());
  EXPECT_EQ(crash_replay.exit_code, 0) << crash_replay.output;

  const ToolRun rewire = run_tool(
      UDRING_MC_BINARY,
      instance + "--fault-budget=rewire=1 --fault-max-action=4" + out);
  EXPECT_TRUE(rewire.exit_code == 0 || rewire.exit_code == 1)
      << "exited " << rewire.exit_code << ":\n"
      << rewire.output;
  fs::remove_all(dir);
}

// ---- udring_campaign --------------------------------------------------------

/// The `digest: <hex>` field of a campaign report.
std::string digest_field(const std::string& output) {
  const std::size_t at = output.find("digest: ");
  if (at == std::string::npos) return "";
  return output.substr(at, output.find_first_of(" \n", at + 8) - at);
}

/// Runs the engine grid as three --shard processes; returns their files.
std::vector<std::string> write_engine_shards(const fs::path& dir) {
  std::vector<std::string> files;
  for (int index = 0; index < 3; ++index) {
    const std::string file =
        (dir / ("shard_" + std::to_string(index) + ".bin")).string();
    const ToolRun shard = run_tool(
        UDRING_CAMPAIGN_BINARY, "--grid=engine --shard=" +
                                    std::to_string(index) + "/3 --out=" + file);
    EXPECT_EQ(shard.exit_code, 0) << shard.output;
    files.push_back(file);
  }
  return files;
}

TEST(UdringCampaign, ThreeShardProcessesMergeToTheSingleProcessDigest) {
  // The 1568-scenario engine grid in one process prints its pinned digest,
  // and --merge of three --shard processes' files prints the same one: the
  // cross-process half of the determinism contract.
  const ToolRun single = run_tool(UDRING_CAMPAIGN_BINARY, "--grid=engine");
  EXPECT_EQ(single.exit_code, 0) << single.output;
  EXPECT_EQ(digest_field(single.output), "digest: 562ec13da3b6353a")
      << single.output;
  const fs::path dir = fresh_dir("shard-merge");
  const std::vector<std::string> files = write_engine_shards(dir);
  const ToolRun merged = run_tool(
      UDRING_CAMPAIGN_BINARY,
      "--merge " + files[0] + " " + files[1] + " " + files[2]);
  EXPECT_EQ(merged.exit_code, 0) << merged.output;
  EXPECT_EQ(digest_field(merged.output), digest_field(single.output))
      << merged.output;
  fs::remove_all(dir);
}

TEST(UdringCampaign, AFlippedShardByteFailsTheMerge) {
  // A shard file ends with a checksum of every byte before it: a copy of
  // shard 1 with one bit of byte 100 flipped fails --merge with exit 1.
  const fs::path dir = fresh_dir("shard-flip");
  const std::vector<std::string> files = write_engine_shards(dir);
  std::ifstream in(files[1], std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 100u);
  bytes[100] = static_cast<char>(bytes[100] ^ 0x01);
  const std::string flipped = (dir / "shard_1_flipped.bin").string();
  {
    std::ofstream out(flipped, std::ios::binary);
    out << bytes;
  }
  const ToolRun merged = run_tool(
      UDRING_CAMPAIGN_BINARY,
      "--merge " + files[0] + " " + flipped + " " + files[2]);
  EXPECT_EQ(merged.exit_code, 1) << merged.output;
  EXPECT_NE(merged.output.find("checksum mismatch"), std::string::npos)
      << merged.output;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace udring
