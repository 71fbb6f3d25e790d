// tools/model_check.cpp
//
// The exhaustive model checker's command-line face.
//
//   udring_mc --algo=known-k-full --n=6 --k=2                 # one instance
//   udring_mc --algo=known-k-logmem --topology=tree --n=4 --k=2
//   udring_mc --algo=known-k-logmem-strict --n=12 --homes=0,1,3,6,7,10
//             --inject-non-fifo --fault-min-phase=1 --budget=2000000
//             --out=mc-artifacts                  # rediscover the race
//   udring_mc --algo=known-k-full --n=8 --k=2 --grid --seeds=3  # grid cells
//
// The modes are instance (the default) and grid; each flag names the modes
// that read it (see --help), and any other given flag is a usage error.
//
// Exit codes: 0 = verified over all schedules (every cell), 1 = violation
// found (the counterexample trace is printed and, with --out, written;
// replay it with `udring_fuzz --replay=<file>`), 3 = budget
// exhausted before the tree was closed (no verdict), 2 = usage error.

#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "explore/fuzz.h"
#include "mc/model_check.h"
#include "tool_flags.h"
#include "util/cli.h"
#include "util/io.h"

namespace {

using namespace udring;

void print_report(const mc::ModelCheckReport& report) {
  const mc::McStats& s = report.stats;
  std::cout << "verdict: " << report.verdict
            << (report.complete ? " (complete)" : " (incomplete)")
            << "   collision bound: " << mc::collision_bound(s.states_expanded)
            << '\n'
            << "schedules explored: " << s.schedules
            << "   states expanded: " << s.states_expanded
            << "   deduped: " << s.states_deduped << '\n'
            << "actions: " << s.total_actions << "   replays: " << s.replays
            << "   max depth: " << s.max_depth << "   shards: " << s.shards
            << '\n';
}

int emit_counterexample(const mc::ModelCheckReport& report,
                        const std::string& out_dir, const std::string& tag) {
  std::cout << "VIOLATION: " << report.failure_reason << '\n';
  if (!report.counterexample) return 1;
  std::cout << "counterexample: " << report.counterexample->choices.size()
            << " choices, digest " << report.counterexample->expected_digest
            << '\n';
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/mc-counterexample-" + tag + ".trace";
    if (write_text_file(path, report.counterexample->to_text())) {
      std::cout << "wrote " << path
                << "  (replay with: udring_fuzz --replay=" << path << ")\n";
    } else {
      std::cerr << "udring_mc: cannot write " << path << '\n';
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv, {"instance", "grid"});
    const core::Algorithm algorithm = explore::algorithm_from_name(
        *cli.get("algo", "algorithm under verification", "known-k-full"));
    const core::ProblemSpec problem = tools::problem_flags(cli, {});
    const explore::FuzzTopology topology = explore::fuzz_topology_from_name(
        *cli.get("topology",
                 "instance topology: ring|tree|graph (tree/graph check the "
                 "Euler-tour virtual ring of a random --seed network)",
                 "ring", {"instance"}));
    const std::size_t n = cli.get_size(
        "n", 6, "ring size (or underlying network size for tree/graph)");
    const std::size_t k = cli.get_size("k", 2, "agent count");
    const std::optional<std::string> homes_csv = cli.get(
        "homes", "comma-separated home nodes (overrides the --seed draw)", "",
        {"instance"});
    const std::uint64_t seed =
        cli.get_u64("seed", 1, "seed for the instance draw (homes / network)");
    mc::McOptions options;
    options.budget_actions = cli.get_size(
        "budget", 0,
        "budget on executed simulator actions, one per edge stepped: ~3-4 "
        "per expanded state on the dedup closure (0 = walk to exhaustion)");
    options.frontier_target = cli.get_size(
        "frontier", 1, "frontier shards for the parallel walk (1 = serial)");
    options.workers =
        cli.get_size("workers", 0, "worker threads for shards (0 = all cores)");
    options.dedup_states =
        !cli.get_flag("no-dedup", "disable visited-state deduplication");
    options.shared_visited_capacity = cli.get_size(
        "shared-visited-capacity", 0,
        "visited-store slots a walk with more than one worker reserves; "
        "the store cannot grow while workers race, so a closure that "
        "overfills it ends budget-exhausted (0 = auto, 2^22)");
    const sim::FaultPlan faults = tools::non_fifo_flags(cli, {});
    mc::FaultBudget fault_budget = tools::parse_fault_budget(
        cli.get("fault-budget",
                "enumerate bounded fault plans on top of every schedule: "
                "comma list of crash=N and rewire=N "
                "(e.g. --fault-budget=crash=1,rewire=2)",
                "", {"instance"})
            .value_or(""),
        "--fault-budget");
    fault_budget.max_fault_action = cli.get_size(
        "fault-max-action", 8,
        "latest action index enumerated fault events may fire at",
        {"instance"});
    const std::size_t max_actions = cli.get_size(
        "max-actions", 0, "per-schedule action cap (0 = simulator auto limit)");
    const bool grid_mode = cli.get_flag(
        "grid", "check a campaign grid cell-by-cell (--seeds instances of "
                "(n, k)) instead of one instance");
    const std::size_t seeds =
        cli.get_size("seeds", 1, "instances per cell in --grid mode", {"grid"});
    const std::string out_dir =
        cli.get("out", "directory for counterexample traces", "").value_or("");
    if (cli.wants_help()) {
      cli.print_help(
          "udring exhaustive model checker: walks every schedule of a small "
          "instance (a DFS over the closure of its reachable configurations, "
          "deduplicated in one visited store shared by every shard) and "
          "proves the goal, or emits a replayable counterexample");
      return 0;
    }
    // --homes replaces the instance draw the seed feeds.
    cli.read_only_if("seed", grid_mode || !homes_csv, "without --homes");
    cli.read_only_if("fault-max-action", !fault_budget.empty(),
                     "with a nonzero --fault-budget");
    // Only a dedup walk sharded over more than one worker reserves the store.
    cli.read_only_if("shared-visited-capacity",
                     options.dedup_states && options.frontier_target > 1 &&
                         options.workers != 1,
                     "with --frontier > 1, --workers other than 1 and dedup");
    cli.reject_bad_flags(grid_mode ? "grid" : "instance");
    if (!homes_csv && k > n) {
      // The instance draw would quietly clamp k to n and verify an instance
      // the caller never asked for.
      throw std::invalid_argument("--k=" + std::to_string(k) + " exceeds --n=" +
                                  std::to_string(n));
    }

    if (grid_mode) {
      exp::CampaignGrid grid;  // grid cells are ring instances
      grid.algorithms = {algorithm};
      grid.problems = {problem};
      grid.node_counts = {n};
      grid.agent_counts = {k};
      grid.seeds = seeds;
      grid.base_seed = seed;
      grid.sim_options.faults = faults;
      grid.sim_options.max_actions = max_actions;
      const mc::GridReport report = mc::check_grid(grid, options);
      std::cout << report.summary();
      if (report.violations != 0) {
        int status = 0;
        for (const mc::GridCell& cell : report.cells) {
          if (cell.report.ok) continue;
          status = emit_counterexample(
              cell.report, out_dir,
              std::string(core::to_string(cell.algorithm)) + "-rep" +
                  std::to_string(cell.repetition));
        }
        return status;
      }
      return report.all_verified() ? 0 : 3;
    }

    mc::CheckRequest request;
    request.algorithm = algorithm;
    request.problem = problem;
    request.faults = faults;
    request.max_actions = max_actions;
    if (homes_csv) {
      request.node_count = n;
      request.homes =
          tools::fixed_ring_homes(cli, *homes_csv, topology, "k", k);
    } else {
      Rng rng(seed);
      explore::DrawnInstance drawn = explore::draw_instance(topology, n, k, rng);
      request.node_count = drawn.node_count;
      request.homes = std::move(drawn.homes);
      request.topology = std::move(drawn.topology);
    }
    std::cout << "model-check " << core::to_string(algorithm) << " n="
              << request.node_count << " k=" << request.homes.size()
              << " topology="
              << (request.topology.empty() ? "ring" : request.topology.name());
    if (problem.kind != core::Problem::Auto) {
      std::cout << " problem=" << core::to_string(problem);
    }
    std::cout << (faults.non_fifo ? " +non-fifo-fault" : "");
    if (!fault_budget.empty()) {
      std::cout << " fault-budget=crash:" << fault_budget.crashes
                << "+rewire:" << fault_budget.rewires << "@<="
                << fault_budget.max_fault_action;
    }
    std::cout << '\n';
    const mc::ModelCheckReport report =
        fault_budget.empty() ? mc::check(request, options)
                             : mc::check_with_faults(request, fault_budget,
                                                     options);
    print_report(report);
    if (!report.ok) {
      return emit_counterexample(report, out_dir,
                                 std::string(core::to_string(algorithm)));
    }
    return report.complete ? 0 : 3;
  } catch (const std::exception& error) {
    std::cerr << "udring_mc: " << error.what() << '\n';
    return 2;
  }
}
