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
// Exit codes: 0 = verified over all schedules (every cell), 1 = violation
// found (the counterexample trace is printed and, with --out, written where
// CI uploads it; replay it with `udring_fuzz --replay=<file>`), 3 = budget
// exhausted before the tree was closed (no verdict), 2 = usage error.

#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "explore/fuzz.h"
#include "mc/model_check.h"
#include "util/cli.h"
#include "util/io.h"

namespace {

using namespace udring;

void print_report(const mc::ModelCheckReport& report) {
  const mc::McStats& s = report.stats;
  std::cout << "verdict: " << report.verdict
            << (report.complete ? " (complete)" : " (incomplete)") << '\n'
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
    Cli cli(argc, argv);
    const std::string algo_name =
        cli.get("algo", "algorithm under verification", "known-k-full")
            .value_or("known-k-full");
    const std::string problem_name =
        cli.get("problem",
                "goal oracle the instance is verified against: "
                "auto|deploy|gather|disperse (auto = the algorithm's natural "
                "problem)",
                "auto")
            .value_or("auto");
    const std::size_t gather_g =
        cli.get_size("gather-g", 2,
                     "group size g for --problem=gather (0 = total gathering)");
    const std::string topology_name =
        cli.get("topology",
                "instance topology: ring|tree|graph (tree/graph check the "
                "Euler-tour virtual ring of a random --seed network)",
                "ring")
            .value_or("ring");
    const std::size_t n = cli.get_size(
        "n", 6, "ring size (or underlying network size for tree/graph)");
    const std::size_t k = cli.get_size("k", 2, "agent count");
    const std::string homes_csv =
        cli.get("homes", "comma-separated home nodes (overrides the --seed draw)",
                "")
            .value_or("");
    const std::uint64_t seed =
        cli.get_u64("seed", 1, "seed for the instance draw (homes / network)");
    const std::size_t budget = cli.get_size(
        "budget", 0,
        "budget on executed simulator actions: tree edges plus snapshot-"
        "restore re-steps, ~11-12 per expanded state on the dedup closure "
        "(0 = walk to exhaustion)");
    const std::size_t frontier = cli.get_size(
        "frontier", 1, "frontier shards for the parallel walk (1 = serial)");
    const std::size_t workers =
        cli.get_size("workers", 0, "worker threads for shards (0 = all cores)");
    const bool no_dedup =
        cli.get_flag("no-dedup", "disable visited-state deduplication");
    const std::size_t shared_capacity = cli.get_size(
        "shared-visited-capacity", 0,
        "visited-store slots a walk with more than one worker reserves; "
        "the store cannot grow while workers race, so a closure that "
        "overfills it ends budget-exhausted (0 = auto, 2^22)");
    sim::FaultPlan faults;
    faults.non_fifo = cli.get_flag(
        "inject-non-fifo", "TEST-ONLY: weaken the FIFO link guarantee");
    faults.non_fifo_min_phase = cli.get_size(
        "fault-min-phase", 0,
        "restrict the non-FIFO fault to actions at/after this phase tag "
        "(needs --inject-non-fifo)");
    const std::string fault_budget_spec =
        cli.get("fault-budget",
                "enumerate bounded fault plans on top of every schedule: "
                "comma list of crash=N and rewire=N "
                "(e.g. --fault-budget=crash=1,rewire=2)",
                "")
            .value_or("");
    const std::size_t fault_max_action = cli.get_size(
        "fault-max-action", 8,
        "latest action index enumerated fault events may fire at");
    const std::size_t max_actions = cli.get_size(
        "max-actions", 0, "per-schedule action cap (0 = simulator auto limit)");
    const bool grid_mode = cli.get_flag(
        "grid", "check a campaign grid cell-by-cell (--seeds instances of "
                "(n, k)) instead of one instance");
    const std::size_t seeds =
        cli.get_size("seeds", 1, "instances per cell in --grid mode");
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
    cli.reject_bad_flags();

    if (faults.non_fifo_min_phase != 0 && !faults.non_fifo) {
      // A phase window narrows the non-FIFO fault; alone it injects nothing,
      // and the walk would "verify" an instance the caller meant to break.
      std::cerr << "udring_mc: --fault-min-phase needs --inject-non-fifo\n";
      return 2;
    }
    // Flags only another mode reads: the walk would silently ignore them.
    if (cli.has("seeds") && !grid_mode) {
      std::cerr << "udring_mc: --seeds needs --grid\n";
      return 2;
    }
    if (cli.has("fault-max-action") && fault_budget_spec.empty()) {
      std::cerr << "udring_mc: --fault-max-action needs --fault-budget\n";
      return 2;
    }
    if (homes_csv.empty() && k > n) {
      // The instance draw would quietly clamp k to n and verify an instance
      // the caller never asked for.
      std::cerr << "udring_mc: --k=" << k << " exceeds --n=" << n << '\n';
      return 2;
    }

    mc::FaultBudget fault_budget;
    fault_budget.max_fault_action = fault_max_action;
    if (!fault_budget_spec.empty()) {
      std::istringstream list(fault_budget_spec);
      for (std::string item; std::getline(list, item, ',');) {
        const std::size_t eq = item.find('=');
        const std::string key = item.substr(0, eq);
        if (eq == std::string::npos || (key != "crash" && key != "rewire")) {
          throw std::invalid_argument("--fault-budget: bad token '" + item +
                                      "' (want crash=N or rewire=N)");
        }
        (key == "crash" ? fault_budget.crashes : fault_budget.rewires) =
            static_cast<std::size_t>(
                parse_unsigned(item.substr(eq + 1), "--fault-budget"));
      }
    }

    mc::McOptions options;
    options.dedup_states = !no_dedup;
    options.shared_visited_capacity = shared_capacity;
    options.budget_actions = budget;
    options.frontier_target = frontier;
    options.workers = workers;

    const core::Algorithm algorithm = explore::algorithm_from_name(algo_name);
    core::ProblemSpec problem;
    problem.kind = core::problem_from_name(problem_name);
    if (problem.kind == core::Problem::Gather) {
      problem.gather_g = gather_g;
    } else if (cli.has("gather-g")) {
      std::cerr << "udring_mc: --gather-g needs --problem=gather\n";
      return 2;
    } else if (problem.kind != core::Problem::Auto) {
      problem.gather_g = 0;  // the parameter belongs to gather only
    }
    const explore::FuzzTopology topology =
        explore::fuzz_topology_from_name(topology_name);

    if (grid_mode) {
      if (topology != explore::FuzzTopology::Ring) {
        std::cerr << "udring_mc: --grid supports --topology=ring only\n";
        return 2;
      }
      if (!fault_budget.empty()) {
        // Budget enumeration multiplies the walk per instance; on a grid that
        // silently explodes — require the single-instance mode.
        std::cerr << "udring_mc: --fault-budget cannot be combined with "
                     "--grid (check one instance at a time)\n";
        return 2;
      }
      if (!homes_csv.empty()) {
        // Grid cells draw their homes from the campaign substream; silently
        // dropping an explicit --homes would report "verified" for
        // instances the caller never named.
        std::cerr << "udring_mc: --homes cannot be combined with --grid\n";
        return 2;
      }
      exp::CampaignGrid grid;
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

    Rng rng(seed);
    mc::CheckRequest request;
    request.algorithm = algorithm;
    request.problem = problem;
    request.faults = faults;
    request.max_actions = max_actions;
    if (!homes_csv.empty()) {
      if (topology != explore::FuzzTopology::Ring) {
        // Fixed homes name ring nodes; silently checking a plain ring while
        // the caller asked for tree/graph would verify the wrong instance.
        std::cerr << "udring_mc: --homes only supports --topology=ring\n";
        return 2;
      }
      request.node_count = n;
      request.homes = parse_unsigned_list(homes_csv, "--homes");
      if (cli.has("k") && k != request.homes.size()) {
        // The homes fix k; an explicit --k that disagrees names an instance
        // the walk would not check.
        std::cerr << "udring_mc: --k=" << k << " disagrees with the "
                  << request.homes.size() << " --homes given\n";
        return 2;
      }
    } else {
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
