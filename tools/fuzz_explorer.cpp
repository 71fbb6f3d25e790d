// tools/fuzz_explorer.cpp
//
// The schedule explorer's command-line face: fuzz, record, replay.
//
//   udring_fuzz                              # fuzz 200 iterations
//   udring_fuzz --algorithm=known-k-logmem-strict --inject-non-fifo
//               --iterations=500 --out=fuzz-artifacts
//   udring_fuzz --topology=tree --iterations=300     # fuzz on Euler-tour rings
//   udring_fuzz --record=trace.txt --algorithm=known-k-full --nodes=16
//               --agents=4 --sched=fifo-stress --seed=7
//   udring_fuzz --record=trace.txt --topology=graph --nodes=12 --agents=3
//   udring_fuzz --record=trace.txt --nodes=10 --homes=0,5
//   udring_fuzz --replay=trace.txt
//
// The modes are replay, record and fuzz; each flag names the modes that
// read it (see --help), and any other given flag is a usage error (exit 2),
// as is an unknown or repeated flag.
//
// Fuzz mode exits 1 when a failure is found; each failure is shrunk to a
// minimal trace (the shrinks run across --workers, like the fuzz) and
// written under --out, where anyone can
// `udring_fuzz --replay=<file>` it. Replay mode exits
// 1 when the replay diverges from the recording — a digest mismatch, or an
// outcome that contradicts the trace's note (a recorded failure that fails
// identically exits 0) — so corpus files double as self-verifying
// regression inputs.

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "explore/fuzz.h"
#include "explore/shrink.h"
#include "tool_flags.h"
#include "util/cli.h"
#include "util/io.h"

namespace {

using namespace udring;

int replay_mode(const std::string& path) {
  const std::optional<std::string> text = read_binary_file(path);
  if (!text) throw std::runtime_error("cannot open " + path);
  const explore::ScheduleTrace trace = explore::ScheduleTrace::parse(*text);
  const explore::ReplayOutcome outcome = explore::replay_trace(trace);
  std::cout << "replayed " << path << ": " << outcome.actions << " actions, digest "
            << outcome.digest << (outcome.failed ? " FAILED: " + outcome.reason
                                                 : " ok")
            << '\n';
  if (outcome.digest != trace.expected_digest) {
    std::cout << "DIGEST MISMATCH: recorded " << trace.expected_digest << '\n';
    return 1;
  }
  const bool expected_failure = trace.note != "ok" && !trace.note.empty();
  if (outcome.failed != expected_failure) {
    std::cout << "OUTCOME MISMATCH: trace note says '" << trace.note << "'\n";
    return 1;
  }
  return 0;
}

/// Records one run of the instance `options` names — its fixed ring homes,
/// or else an instance drawn at (n, k) from the seed.
int record_mode(const std::string& path, const explore::FuzzOptions& options,
                std::size_t n, std::size_t k,
                explore::ExploreSchedulerKind kind) {
  explore::RecordRequest request;
  request.algorithm = options.algorithm;
  request.problem = options.problem;
  request.kind = kind;
  request.seed = options.base_seed;
  request.faults = options.faults;
  if (!options.fixed_homes.empty()) {
    request.node_count = options.fixed_nodes;
    request.homes = options.fixed_homes;
  } else {
    // --nodes sizes the underlying network for tree/graph; the recorded
    // instance is its Euler-tour virtual ring, so the trace replays
    // stand-alone.
    Rng rng(options.base_seed);
    explore::DrawnInstance drawn =
        explore::draw_instance(options.topology, n, k, rng);
    request.node_count = drawn.node_count;
    request.homes = std::move(drawn.homes);
    request.topology = std::move(drawn.topology);
  }
  const explore::ScheduleTrace trace = explore::record_trace(request);
  if (!write_text_file(path, trace.to_text())) {
    throw std::runtime_error("cannot write " + path);
  }
  std::cout << "recorded " << path << ": " << trace.choices.size()
            << " choices, digest " << trace.expected_digest << ", outcome "
            << trace.note << '\n';
  return trace.note == "ok" ? 0 : 1;
}

int fuzz_mode(const explore::FuzzOptions& options, const std::string& out_dir) {
  const explore::FuzzReport report = explore::run_fuzz(options);
  std::cout << "fuzz: algorithm=" << core::to_string(options.algorithm)
            << " oracle=" << explore::to_string(options.oracle);
  // Budgets in the header line only when set, so fault-free logs diff
  // clean against historical runs.
  if (options.fault_crash_budget != 0) {
    std::cout << " crash-budget=" << options.fault_crash_budget;
  }
  if (options.fault_rewire_budget != 0) {
    std::cout << " rewire-budget=" << options.fault_rewire_budget;
  }
  std::cout << " iterations=" << report.iterations
            << " actions=" << report.total_actions
            << " failures=" << report.failures << " digest=" << report.digest
            << '\n';
  if (report.failures == 0) return 0;

  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  // Shrunk across the fuzz's workers, printed and written in sample order.
  const std::vector<explore::ShrinkResult> shrunk_samples =
      explore::shrink_failures(report.failure_samples, options.workers);
  std::size_t written = 0;
  for (std::size_t i = 0; i < shrunk_samples.size(); ++i) {
    const explore::FuzzFailure& failure = report.failure_samples[i];
    const explore::ShrinkResult& shrunk = shrunk_samples[i];
    std::cout << "  FAIL iteration " << failure.iteration << " @action "
              << failure.at_action << ": " << failure.reason << '\n';
    std::cout << "    shrunk " << shrunk.original_size << " -> "
              << shrunk.trace.choices.size() << " choices ("
              << shrunk.replays << " replays): " << shrunk.reason << '\n';
    if (!out_dir.empty()) {
      std::ostringstream name;
      name << out_dir << "/shrunk-" << core::to_string(options.algorithm)
           << "-iter" << failure.iteration << ".trace";
      if (write_text_file(name.str(), shrunk.trace.to_text())) {
        std::cout << "    wrote " << name.str() << '\n';
        ++written;
      } else {
        std::cerr << "udring_fuzz: cannot write " << name.str() << '\n';
      }
    }
  }
  if (written != 0) {
    std::cout << "replay any artifact with: udring_fuzz --replay=<file>\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv, {"replay", "record", "fuzz"});
    const Cli::Modes run = {"record", "fuzz"};  // both run the algorithm
    explore::FuzzOptions options;
    const std::string replay_path =
        cli.get("replay", "replay a trace file and verify its digest", "",
                {"replay"})
            .value_or("");
    const std::string record_path =
        cli.get("record", "record one run to this trace file", "", {"record"})
            .value_or("");
    options.algorithm = explore::algorithm_from_name(
        *cli.get("algorithm", "algorithm under test", "known-k-full", run));
    options.problem = tools::problem_flags(cli, run);
    const std::string sched_name =
        cli.get("sched",
                "scheduler for --record; fuzz pool restriction otherwise "
                "(empty = all kinds)",
                "", run)
            .value_or("");
    options.topology = explore::fuzz_topology_from_name(
        *cli.get("topology",
                 "instance topology: ring|tree|graph (tree/graph fuzz and "
                 "record on the Euler-tour virtual ring of a random network)",
                 "ring", run));
    const std::size_t n = cli.get_size(
        "nodes", 16,
        "ring size (or underlying network size) for --record or --homes", run);
    const std::size_t k =
        cli.get_size("agents", 4, "agent count for --record", {"record"});
    options.iterations =
        cli.get_size("iterations", 200, "fuzz budget", {"fuzz"});
    options.base_seed = cli.get_u64("seed", 1, "base seed", run);
    options.min_nodes =
        cli.get_size("min-nodes", 8, "minimum ring size", {"fuzz"});
    options.max_nodes =
        cli.get_size("max-nodes", 24, "maximum ring size", {"fuzz"});
    options.min_agents =
        cli.get_size("min-agents", 2, "minimum agent count", {"fuzz"});
    options.max_agents =
        cli.get_size("max-agents", 6, "maximum agent count", {"fuzz"});
    options.workers =
        cli.get_size("workers", 0,
                     "worker threads for the fuzz and the shrinks (0 = all "
                     "cores)",
                     {"fuzz"});
    options.oracle = explore::oracle_mode_from_name(
        *cli.get("oracle",
                 "per-action invariant oracle: full (re-walk every node each "
                 "action) | incremental (O(dirty) footprint revalidation + "
                 "periodic full re-walk; use for --min-nodes >> 100)",
                 "full", {"fuzz"}));
    options.oracle_full_check_every = cli.get_size(
        "oracle-full-every", 1024,
        "incremental oracle: full re-walk every N actions (0 = never)",
        {"fuzz"});
    options.max_recorded_failures = cli.get_size(
        "max-failures", 8, "failing traces to keep and shrink", {"fuzz"});
    options.faults = tools::non_fifo_flags(cli, run);
    const mc::FaultBudget budget = tools::parse_fault_budget(
        cli.get("faults",
                "per-iteration fault budgets, comma list of crash=N and "
                "rewire=N (e.g. --faults=crash=1,rewire=2); drawn faults land "
                "in each trace and replay byte-identically",
                "", {"fuzz"})
            .value_or(""),
        "--faults");
    options.fault_crash_budget = budget.crashes;
    options.fault_rewire_budget = budget.rewires;
    const std::optional<std::string> homes_csv =
        cli.get("homes",
                "comma-separated home nodes: fuzz or record this fixed ring "
                "instance (with --nodes) instead of drawing one",
                "", run);
    const std::string out_dir =
        cli.get("out", "directory for shrunk failing traces", "", {"fuzz"})
            .value_or("");

    if (cli.wants_help()) {
      cli.print_help(
          "udring schedule explorer: fuzz adversarial schedules, record and "
          "replay executions");
      return 0;
    }
    const std::string mode = cli.has("replay")   ? "replay"
                             : cli.has("record") ? "record"
                                                 : "fuzz";
    // Fuzz mode draws each instance from the size ranges; --homes fixes it.
    cli.read_only_if("nodes", mode == "record" || homes_csv.has_value(),
                     "with --homes or --record");
    for (const char* range :
         {"min-nodes", "max-nodes", "min-agents", "max-agents"}) {
      cli.read_only_if(range, !homes_csv, "without --homes");
    }
    cli.read_only_if("oracle-full-every",
                     options.oracle == explore::OracleMode::Incremental,
                     "with --oracle=incremental");
    cli.reject_bad_flags(mode);
    if (mode == "replay") return replay_mode(replay_path);

    if (homes_csv) {
      options.fixed_nodes = n;
      options.fixed_homes = tools::fixed_ring_homes(
          cli, *homes_csv, options.topology, "agents", k);
    }
    if (mode == "record") {
      return record_mode(record_path, options, n, k,
                         explore::explore_scheduler_from_name(
                             sched_name.empty() ? "round-robin" : sched_name));
    }
    if (!sched_name.empty()) {
      options.schedulers = {explore::explore_scheduler_from_name(sched_name)};
    }
    return fuzz_mode(options, out_dir);
  } catch (const std::exception& error) {
    std::cerr << "udring_fuzz: " << error.what() << '\n';
    return 2;
  }
}
