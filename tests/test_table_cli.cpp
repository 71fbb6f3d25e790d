// Tests for util/table.h and util/cli.h — the presentation layer of the
// bench binaries and examples — plus the udring_mc, udring_fuzz and
// udring_campaign flag checks end to end.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/table.h"

namespace udring {
namespace {

TEST(Table, AlignsColumnsAndPrintsRule) {
  Table table({"n", "k", "moves"});
  table.add_row({"64", "8", "812"});
  table.add_row({"4096", "256", "1234567"});
  std::ostringstream out;
  out << table;
  const std::string text = out.str();
  EXPECT_NE(text.find("n"), std::string::npos);
  EXPECT_NE(text.find("1234567"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  // Header line and rule and 2 rows → at least 4 lines.
  EXPECT_GE(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(Table, PadsShortRows) {
  Table table({"a", "b", "c"});
  table.add_row({"only"});
  std::ostringstream out;
  EXPECT_NO_THROW(out << table);
  EXPECT_EQ(table.rows(), 1u);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(std::size_t{42}), "42");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(PrintSection, EmitsTitle) {
  std::ostringstream out;
  print_section(out, "Table 1");
  EXPECT_NE(out.str().find("== Table 1"), std::string::npos);
}

TEST(Cli, ParsesEqualsAndBooleanForms) {
  const char* argv[] = {"prog", "--n=64", "--k=8", "--verbose", "pos1"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_size("n", 0, "ring size"), 64u);
  EXPECT_EQ(cli.get_size("k", 0, "agents"), 8u);
  EXPECT_TRUE(cli.get_flag("verbose", "chatty"));
  EXPECT_FALSE(cli.get_flag("quiet", "silent"));
  const std::vector<std::string>& positionals = cli.get_positionals("inputs");
  ASSERT_EQ(positionals.size(), 1u);
  EXPECT_EQ(positionals[0], "pos1");
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_size("n", 128, "ring size"), 128u);
  EXPECT_EQ(cli.get_u64("seed", 42, "rng seed"), 42u);
  EXPECT_EQ(cli.get("name", "label", "fallback").value(), "fallback");
}

/// Runs `parse`, expecting std::invalid_argument whose message names `flag`
/// and contains `detail`.
template <typename Parse>
void expect_rejected(Parse parse, const std::string& flag,
                     const std::string& detail) {
  try {
    (void)parse();
    ADD_FAILURE() << flag << ": accepted, expected a rejection";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_EQ(message.rfind(flag + ":", 0), 0u) << message;
    EXPECT_NE(message.find(detail), std::string::npos) << message;
  }
}

TEST(Cli, NumericFlagsRejectWhatStoullAccepted) {
  // std::stoull accepts each of these: it wraps "-5" to a huge budget, drops
  // the "x" of "3x" and skips the blank of " 7".
  const char* argv[] = {"prog",     "--budget=-5", "--n=-1",  "--k=3x",
                        "--seed=",  "--plus=+4",   "--blank= 7",
                        "--big=18446744073709551616"};
  Cli cli(8, argv);
  expect_rejected([&] { return cli.get_size("budget", 0, "b"); }, "--budget",
                  "'-5'");
  expect_rejected([&] { return cli.get_size("n", 6, "n"); }, "--n", "'-1'");
  expect_rejected([&] { return cli.get_size("k", 2, "k"); }, "--k", "'3x'");
  expect_rejected([&] { return cli.get_u64("seed", 1, "s"); }, "--seed", "''");
  expect_rejected([&] { return cli.get_size("plus", 0, "p"); }, "--plus",
                  "'+4'");
  expect_rejected([&] { return cli.get_size("blank", 0, "b"); }, "--blank",
                  "' 7'");
  expect_rejected([&] { return cli.get_u64("big", 0, "b"); }, "--big",
                  "out of range");
}

TEST(Cli, ParseUnsignedAcceptsTheFullRange) {
  EXPECT_EQ(parse_unsigned("0", "--x"), 0u);
  EXPECT_EQ(parse_unsigned("007", "--x"), 7u);
  EXPECT_EQ(parse_unsigned("18446744073709551615", "--x"),
            std::numeric_limits<std::uint64_t>::max());
  const char* argv[] = {"prog", "--workers=4"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get_size("workers", 0, "w"), 4u);
}

TEST(Cli, UnsignedListsRejectEmptyAndMalformedEntries) {
  EXPECT_EQ(parse_unsigned_list("0,3,7", "--homes"),
            (std::vector<std::size_t>{0, 3, 7}));
  EXPECT_EQ(parse_unsigned_list("5", "--homes"), (std::vector<std::size_t>{5}));
  expect_rejected([] { return parse_unsigned_list("0,3x", "--homes"); },
                  "--homes", "'3x'");
  expect_rejected([] { return parse_unsigned_list("0,,3", "--homes"); },
                  "--homes", "empty entry");
  expect_rejected([] { return parse_unsigned_list("0,3,", "--homes"); },
                  "--homes", "empty entry");
  expect_rejected([] { return parse_unsigned_list("0,-3", "--homes"); },
                  "--homes", "'-3'");
  expect_rejected(
      [] { return parse_unsigned_list("1,99999999999999999999", "--homes"); },
      "--homes", "out of range");
}

TEST(Cli, RejectsUnregisteredFlagsInCommandLineOrder) {
  // One pass in command-line order: a flag no get* registered, one the
  // selected mode does not read, and one whose read condition is false.
  const char* argv[] = {"prog",      "--n=8", "--no-such-flag", "--lanes=4",
                        "--out=x", "--g=3", "pos1"};
  Cli cli(7, argv, {"run", "merge"});
  (void)cli.get_size("n", 6, "ring size");  // read in every mode
  (void)cli.get("out", "shard file", "", {"run"});
  (void)cli.get_size("g", 2, "group size");
  cli.read_only_if("g", false, "with --problem=gather");
  const auto reject = [&](const char* mode) {
    return [&cli, mode] {
      cli.reject_bad_flags(mode);
      return 0;
    };
  };
  expect_rejected(reject("run"), "--no-such-flag", "unknown flag");
  (void)cli.get_flag("no-such-flag", "registered late");
  expect_rejected(reject("run"), "--lanes", "unknown flag");
  (void)cli.get_size("lanes", 0, "registered late", {"run", "merge"});
  // --n (no modes) and --lanes (both modes) pass in merge mode; --out not.
  expect_rejected(reject("merge"), "--out", "not read in merge mode");
  expect_rejected(reject("run"), "--g", "read only with --problem=gather");
  cli.read_only_if("g", true, "with --problem=gather");
  // Every flag passes now; the positional comes after them all.
  expect_rejected(reject("run"), "pos1", "unexpected argument");
  (void)cli.get_positionals("inputs", {"run"});
  EXPECT_NO_THROW(cli.reject_bad_flags("run"));
  // Mode names are the program's own: a typo is a programming error.
  EXPECT_THROW(cli.reject_bad_flags("shard"), std::logic_error);
  EXPECT_THROW(cli.reject_bad_flags(), std::logic_error);
  EXPECT_THROW((void)cli.get_flag("summary", "table", {"shard"}),
               std::logic_error);
}

TEST(Cli, RejectsRepeatedFlags) {
  // Last-wins parsing ran a different instance than the first value named.
  const char* argv[] = {"prog", "--n=8", "--verbose", "--n=6", "--out=x"};
  Cli cli(5, argv, {"run", "merge"});
  EXPECT_EQ(cli.get_size("n", 6, "ring size"), 6u);
  EXPECT_TRUE(cli.get_flag("verbose", "chatty"));
  (void)cli.get("out", "shard file", "", {"run"});
  // The repeat comes first on the command line, so it is the one named.
  expect_rejected(
      [&] {
        cli.reject_bad_flags("merge");
        return 0;
      },
      "--n", "given more than once");
}

TEST(Cli, RejectsBareValuesAndPositionalsNoModeReads) {
  // A bare value flag read as the string "true": --record wrote a trace
  // named "true"; and a positional argument went unread.
  const char* argv[] = {"prog", "--out", "--n", "--seed", "--summary",
                        "stray"};
  Cli cli(6, argv, {"run", "merge"});
  expect_rejected([&] { return cli.get("out", "output file"); }, "--out",
                  "needs a value");
  expect_rejected([&] { return cli.get_size("n", 6, "ring size"); }, "--n",
                  "needs a value");
  expect_rejected([&] { return cli.get_u64("seed", 1, "seed"); }, "--seed",
                  "needs a value");
  EXPECT_TRUE(cli.get_flag("summary", "table"));  // a bare boolean is true
  const auto reject = [&](const char* mode) {
    return [&cli, mode] {
      cli.reject_bad_flags(mode);
      return 0;
    };
  };
  expect_rejected(reject("run"), "stray", "unexpected argument");
  EXPECT_EQ(cli.get_positionals("shard files", {"merge"}),
            std::vector<std::string>{"stray"});
  expect_rejected(reject("run"), "stray",
                  "positional argument not read in run mode (read in: merge)");
  EXPECT_NO_THROW(cli.reject_bad_flags("merge"));
  EXPECT_THROW((void)cli.get_positionals("files", {"shard"}),
               std::logic_error);
}

/// Exit status of `<binary> <args>`, output discarded.
int run_tool(const std::string& binary, const std::string& args) {
  const std::string command = binary + " " + args + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cli, ModelCheckerRejectsBadNumbersAsUsageErrors) {
  // Through std::stoull, -5 becomes an unlimited budget, -1 dies in a vector
  // allocation, "3x" checks homes {0,3}, an empty entry or an overflow
  // prints a bare "stoull"; and the instance draw clamps k > n to k = n.
  // An unknown flag (a typo, or a retired option) was silently ignored, so
  // the run checked something other than was asked; so was a non-FIFO phase
  // window without --inject-non-fifo, which verified the fault-free model,
  // a repeated flag (the last value won), a --k the --homes overrode, a
  // stray positional argument and a bare value flag (--out became "true").
  // A visited store capacity whose slot array overflows is rejected whether
  // or not the walk reads it.
  for (const char* bad :
       {"--budget=-5", "--n=-1", "--homes=0,3x", "--homes=0,,3",
        "--budget=99999999999999999999", "--n=4 --k=5", "--no-such-flag",
        "--fault-min-phase=1", "--n=8 --n=6", "--n=8 --n=6 --k=2 --homes=0,3",
        "--n=8 --k=3 --homes=0,4", "--n=6 --k=2 extra",
        "--n=6 --k=2 --out", "--shared-visited-capacity=9223372036854775809",
        "--shared-visited-capacity=4611686018427387905",
        "--frontier=4 --workers=2 "
        "--shared-visited-capacity=9223372036854775809",
        "--frontier=4 --workers=2 "
        "--shared-visited-capacity=4611686018427387905"}) {
    EXPECT_EQ(
        run_tool(UDRING_MC_BINARY, std::string("--algo=known-k-full ") + bad),
        2)
        << bad;
  }
  EXPECT_EQ(run_tool(UDRING_MC_BINARY, "--algo=known-k-full --n=6 --k=2"), 0);
  EXPECT_EQ(run_tool(UDRING_MC_BINARY,
                     "--algo=known-k-full --n=8 --k=2 --homes=0,4"),
            0);
}

TEST(Cli, FuzzAndCampaignToolsRejectUnknownFlags) {
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--iterations=1 --no-such-flag"), 2);
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--iterations=1 --fault-min-phase=3"),
            2);
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--iterations=1 --iterations=2"), 2);
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--iterations=1 --workers=1"), 0);
  // A bare --record took the value "true" and recorded to a file of that
  // name; trace.txt went unread.
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY,
                     "--record trace.txt --algorithm=known-k-full --nodes=8 "
                     "--agents=2 --seed=3"),
            2);
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--iterations=1 stray"), 2);
  EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY, "--no-such-flag"), 2);
  for (const char* bad :
       {"--no-such-flag", "--lanes=4", "--grid=engine", "stray"}) {
    EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY,
                       std::string("--grid=smoke --workers=1 ") + bad),
              2)
        << bad;
  }
  EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY, "--grid=smoke --workers=1"), 0);
}

TEST(Cli, FuzzRecordRunsTheNamedHomes) {
  // --record drew its instance from --nodes/--agents and ignored --homes:
  // this command wrote "homes 2 8".
  const std::string trace = testing::TempDir() + "/cli_record_homes.trace";
  std::remove(trace.c_str());
  const std::string record =
      "--record=" + trace + " --homes=0,5 --nodes=10 --agents=2 --seed=3";
  ASSERT_EQ(run_tool(UDRING_FUZZ_BINARY, record), 0);
  std::ifstream in(trace);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\nnodes 10\n"), std::string::npos) << text.str();
  EXPECT_NE(text.str().find("\nhomes 0 5\n"), std::string::npos) << text.str();
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--replay=" + trace), 0);
  // --homes names ring nodes and fixes k.
  for (const char* bad : {" --homes=0,5 --topology=tree",
                          " --homes=0,5 --agents=3"}) {
    EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--record=" + trace + bad), 2)
        << bad;
  }
  std::remove(trace.c_str());
}

TEST(Cli, ModelCheckAndFuzzToolsRejectFlagsTheirModeIgnores) {
  // Each of these ran and exited 0, ignoring the flag its mode never reads:
  // --homes replaces the instance draw --seed feeds, grid cells are rings,
  // and only a dedup walk sharded over more than one worker reserves the
  // visited store.
  for (const char* bad :
       {"--seeds=5", "--fault-max-action=4", "--gather-g=3",
        "--problem=deploy --gather-g=3", "--homes=0,3 --seed=5",
        "--grid --topology=ring",
        "--shared-visited-capacity=16",
        "--frontier=4 --workers=1 --shared-visited-capacity=16",
        "--no-dedup --frontier=4 --workers=2 --shared-visited-capacity=16"}) {
    EXPECT_EQ(run_tool(UDRING_MC_BINARY,
                       std::string("--algo=known-k-full --n=6 --k=2 ") + bad),
              2)
        << bad;
  }
  for (const char* good :
       {"--grid --seeds=2", "--grid --seed=5",
        "--frontier=4 --workers=2 --shared-visited-capacity=4096"}) {
    EXPECT_EQ(run_tool(UDRING_MC_BINARY,
                       std::string("--algo=known-k-full --n=6 --k=2 ") + good),
              0)
        << good;
  }
  // A verdict (a rewiring breaks this instance), not a usage error.
  EXPECT_EQ(run_tool(UDRING_MC_BINARY,
                     "--algo=known-k-full --n=6 --k=2 --homes=0,3 "
                     "--fault-budget=rewire=1 --fault-max-action=2"),
            1);

  const std::string trace = testing::TempDir() + "/cli_modes.trace";
  std::remove(trace.c_str());
  ASSERT_EQ(run_tool(UDRING_FUZZ_BINARY, "--record=" + trace), 0);
  // A replay rebuilds its run from the trace alone.
  for (const char* bad : {"--iterations=5", "--seed=3", "--nodes=10",
                          "--algorithm=known-k-full", "--out=x"}) {
    EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY,
                       "--replay=" + trace + " " + std::string(bad)),
              2)
        << bad;
  }
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--replay=" + trace), 0);
  // --record runs one instance: the fuzz budget, size ranges, workers,
  // oracle, failure cap, fault budgets and artifact directory go unread.
  const std::string fresh = testing::TempDir() + "/cli_modes_fresh.trace";
  for (const char* bad :
       {"--iterations=5", "--min-nodes=8", "--max-nodes=12", "--min-agents=2",
        "--max-agents=3", "--workers=1", "--oracle=incremental",
        "--oracle-full-every=4", "--max-failures=2", "--faults=crash=1",
        "--out=x"}) {
    EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY,
                       "--record=" + fresh + " " + std::string(bad)),
              2)
        << bad;
  }
  // Fuzz mode draws each instance from the size ranges, or runs --homes;
  // only the incremental oracle re-walks periodically.
  for (const char* bad :
       {"--agents=3", "--nodes=12", "--gather-g=3",
        "--problem=deploy --gather-g=3",
        "--homes=0,5 --nodes=10 --min-nodes=8",
        "--homes=0,5 --nodes=10 --max-nodes=12",
        "--homes=0,5 --nodes=10 --min-agents=2",
        "--homes=0,5 --nodes=10 --max-agents=3", "--oracle-full-every=7"}) {
    EXPECT_EQ(
        run_tool(UDRING_FUZZ_BINARY, std::string("--iterations=1 ") + bad), 2)
        << bad;
  }
  for (const char* good : {"--nodes=12 --homes=0,6", "--homes=0,5 --nodes=10",
                           "--oracle=incremental --oracle-full-every=7"}) {
    EXPECT_EQ(
        run_tool(UDRING_FUZZ_BINARY, std::string("--iterations=1 ") + good), 0)
        << good;
  }
  for (const std::string& path : {trace, fresh}) std::remove(path.c_str());
}

TEST(Cli, CampaignToolRejectsFlagsItsModeIgnores) {
  const std::string shard = testing::TempDir() + "/cli_shard.bin";
  const std::string other = testing::TempDir() + "/cli_other.bin";
  std::remove(shard.c_str());
  ASSERT_EQ(run_tool(UDRING_CAMPAIGN_BINARY,
                     "--grid=smoke --workers=1 --shard=0/1 --out=" + shard),
            0);
  // --merge reads only its shard files: every run flag would be ignored.
  for (const char* flag :
       {"--grid=smoke", "--shard=0/2", "--out=x.bin", "--checkpoint=x.bin",
        "--checkpoint-every=4", "--seeds=3", "--base-seed=9", "--workers=1"}) {
    EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY,
                       "--merge " + std::string(flag) + " " + shard),
              2)
        << flag;
  }
  EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY,
                     "--merge --allow-partial --summary " + shard),
            0);
  // A shard's checkpoint is its --out, and a shard prints no table.
  const std::string shard_run =
      "--grid=smoke --workers=1 --shard=0/2 --out=" + other;
  EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY,
                     shard_run + " --checkpoint=" + other + ".ckpt"),
            2);
  EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY, shard_run + " --summary"), 2);
  // Without a checkpoint file, --checkpoint-every would only cut the same
  // folds into blocks.
  for (const char* bad :
       {"--allow-partial", "--out=x.bin", "--checkpoint-every=4"}) {
    EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY,
                       std::string("--grid=smoke --workers=1 ") + bad),
              2)
        << bad;
  }
  EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY,
                     "--grid=smoke --workers=1 --checkpoint-every=4 "
                     "--checkpoint=" + other + ".ckpt"),
            0);
  for (const std::string& path : {shard, other, other + ".ckpt"}) {
    std::remove(path.c_str());
  }
}

TEST(Cli, HelpFlagDetected) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, argv, {"run", "merge"});
  EXPECT_TRUE(cli.wants_help());
  testing::internal::CaptureStdout();
  (void)cli.get_size("n", 1, "ring size");
  (void)cli.get_flag("allow-partial", "fold a partial shard set", {"merge"});
  cli.print_help("test program");
  const std::string help = testing::internal::GetCapturedStdout();
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("ring size"), std::string::npos);
  // The modes, and each flag read in only some of them with its list.
  EXPECT_NE(help.find("Modes: run, merge."), std::string::npos) << help;
  EXPECT_NE(help.find("--allow-partial (default: false) [modes: merge]\n"),
            std::string::npos)
      << help;
  EXPECT_NE(help.find("--n (default: 1)\n"), std::string::npos) << help;
}

}  // namespace
}  // namespace udring
