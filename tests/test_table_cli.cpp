// Tests for util/table.h and util/cli.h — the presentation layer of the
// bench binaries and examples — plus the udring_mc, udring_fuzz and
// udring_campaign flag checks end to end.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
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
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
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
  const char* argv[] = {"prog", "--n=8", "--no-such-flag", "--lanes=4",
                        "pos1"};
  Cli cli(5, argv);
  (void)cli.get_size("n", 6, "ring size");
  const auto reject = [&] {
    cli.reject_unknown_flags();
    return 0;
  };
  expect_rejected(reject, "--no-such-flag", "unknown flag");
  (void)cli.get_flag("no-such-flag", "registered late");
  expect_rejected(reject, "--lanes", "unknown flag");
  (void)cli.get_size("lanes", 0, "registered late");
  EXPECT_NO_THROW(cli.reject_unknown_flags());  // positionals are not flags
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
  // window without --inject-non-fifo, which verified the fault-free model.
  for (const char* bad :
       {"--budget=-5", "--n=-1", "--homes=0,3x", "--homes=0,,3",
        "--budget=99999999999999999999", "--n=4 --k=5", "--no-such-flag",
        "--fault-min-phase=1"}) {
    EXPECT_EQ(
        run_tool(UDRING_MC_BINARY, std::string("--algo=known-k-full ") + bad),
        2)
        << bad;
  }
  EXPECT_EQ(run_tool(UDRING_MC_BINARY, "--algo=known-k-full --n=6 --k=2"), 0);
}

TEST(Cli, FuzzAndCampaignToolsRejectUnknownFlags) {
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--iterations=1 --no-such-flag"), 2);
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--iterations=1 --fault-min-phase=3"),
            2);
  EXPECT_EQ(run_tool(UDRING_FUZZ_BINARY, "--iterations=1 --workers=1"), 0);
  for (const char* bad : {"--no-such-flag", "--lanes=4"}) {
    EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY,
                       std::string("--grid=smoke --workers=1 ") + bad),
              2)
        << bad;
  }
  EXPECT_EQ(run_tool(UDRING_CAMPAIGN_BINARY, "--grid=smoke --workers=1"), 0);
}

TEST(Cli, HelpFlagDetected) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.wants_help());
  testing::internal::CaptureStdout();
  (void)cli.get_size("n", 1, "ring size");
  cli.print_help("test program");
  const std::string help = testing::internal::GetCapturedStdout();
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("ring size"), std::string::npos);
}

}  // namespace
}  // namespace udring
