// tools/fuzz_explorer.cpp
//
// The schedule explorer's command-line face: fuzz, record, replay.
//
//   udring_fuzz                              # fuzz (budget from UDRING_FUZZ_BUDGET)
//   udring_fuzz --algorithm=known-k-logmem-strict --inject-non-fifo
//               --iterations=500 --out=fuzz-artifacts
//   udring_fuzz --topology=tree --iterations=300     # fuzz on Euler-tour rings
//   udring_fuzz --record=trace.txt --algorithm=known-k-full --nodes=16
//               --agents=4 --sched=fifo-stress --seed=7
//   udring_fuzz --record=trace.txt --topology=graph --nodes=12 --agents=3
//   udring_fuzz --record=trace.txt --nodes=10 --homes=0,5
//   udring_fuzz --replay=trace.txt
//
// Each mode takes only the flags it reads; any other flag is a usage error
// (exit 2), as is an unknown or repeated flag.
//
// Fuzz mode exits 1 when a failure is found; each failure is shrunk to a
// minimal trace and written under --out so CI can upload it as an artifact
// and anyone can `udring_fuzz --replay=<file>` it locally. Replay mode exits
// 1 when the replay diverges from the recording — a digest mismatch, or an
// outcome that contradicts the trace's note (a recorded failure that fails
// identically exits 0) — so corpus files double as self-verifying
// regression inputs.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "explore/fuzz.h"
#include "explore/shrink.h"
#include "util/cli.h"
#include "util/io.h"

namespace {

using namespace udring;

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int replay_mode(const std::string& path) {
  const explore::ScheduleTrace trace =
      explore::ScheduleTrace::parse(read_file(path));
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
    std::cerr << "udring_fuzz: cannot write " << path << '\n';
    return 2;
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
  // Budgets in the header line only when set, so fault-free CI logs diff
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
  std::size_t written = 0;
  for (const explore::FuzzFailure& failure : report.failure_samples) {
    std::cout << "  FAIL iteration " << failure.iteration << " @action "
              << failure.at_action << ": " << failure.reason << '\n';
    const explore::ShrinkResult shrunk = explore::shrink_trace(failure.trace);
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
    Cli cli(argc, argv);
    const std::string replay_path =
        cli.get("replay", "replay a trace file and verify its digest").value_or("");
    const std::string record_path =
        cli.get("record", "record one run to this trace file").value_or("");
    const std::string algorithm_name =
        cli.get("algorithm", "algorithm under test", "known-k-full")
            .value_or("known-k-full");
    const std::string problem_name =
        cli.get("problem",
                "goal oracle the runs are judged against: "
                "auto|deploy|gather|disperse (auto = the algorithm's natural "
                "problem)",
                "auto")
            .value_or("auto");
    const std::size_t gather_g =
        cli.get_size("gather-g", 2,
                     "group size g for --problem=gather (0 = total gathering)");
    const std::string sched_name =
        cli.get("sched",
                "scheduler for --record; fuzz pool restriction otherwise "
                "(empty = all kinds)",
                "")
            .value_or("");
    const std::string topology_name =
        cli.get("topology",
                "instance topology: ring|tree|graph (tree/graph fuzz and "
                "record on the Euler-tour virtual ring of a random network)",
                "ring")
            .value_or("ring");
    const std::size_t n = cli.get_size(
        "nodes", 16,
        "ring size (or underlying network size) for --record or --homes");
    const std::size_t k = cli.get_size("agents", 4, "agent count for --record");
    // A malformed or zero budget must not silently turn the CI fuzz gate
    // into a no-op pass; fall back to the default and say so.
    std::size_t default_budget = 200;
    if (const char* budget_env = std::getenv("UDRING_FUZZ_BUDGET")) {
      std::uint64_t parsed = 0;
      try {
        parsed = parse_unsigned(budget_env, "UDRING_FUZZ_BUDGET");
      } catch (const std::invalid_argument&) {
        // Reported below like a zero budget.
      }
      if (parsed > 0 && std::in_range<std::size_t>(parsed)) {
        default_budget = static_cast<std::size_t>(parsed);
      } else {
        std::cerr << "udring_fuzz: ignoring invalid UDRING_FUZZ_BUDGET='"
                  << budget_env << "', using " << default_budget << '\n';
      }
    }
    explore::FuzzOptions options;
    options.iterations =
        cli.get_size("iterations", default_budget,
                     "fuzz budget (default: $UDRING_FUZZ_BUDGET or 200)");
    options.base_seed = cli.get_u64("seed", 1, "base seed");
    options.min_nodes = cli.get_size("min-nodes", 8, "minimum ring size");
    options.max_nodes = cli.get_size("max-nodes", 24, "maximum ring size");
    options.min_agents = cli.get_size("min-agents", 2, "minimum agent count");
    options.max_agents = cli.get_size("max-agents", 6, "maximum agent count");
    options.workers = cli.get_size("workers", 0, "worker threads (0 = all cores)");
    const std::string oracle_name =
        cli.get("oracle",
                "per-action invariant oracle: full (re-walk every node each "
                "action) | incremental (O(dirty) footprint revalidation + "
                "periodic full re-walk; use for --min-nodes >> 100)",
                "full")
            .value_or("full");
    options.oracle_full_check_every = cli.get_size(
        "oracle-full-every", 1024,
        "incremental oracle: full re-walk every N actions (0 = never)");
    options.max_recorded_failures =
        cli.get_size("max-failures", 8, "failing traces to keep and shrink");
    options.faults.non_fifo = cli.get_flag(
        "inject-non-fifo", "TEST-ONLY: weaken the FIFO link guarantee");
    options.faults.non_fifo_min_phase = cli.get_size(
        "fault-min-phase", 0,
        "restrict the non-FIFO fault to actions at/after this phase tag "
        "(needs --inject-non-fifo)");
    const std::string faults_spec =
        cli.get("faults",
                "per-iteration fault budgets, comma list of crash=N and "
                "rewire=N (e.g. --faults=crash=1,rewire=2); drawn faults land "
                "in each trace and replay byte-identically",
                "")
            .value_or("");
    if (!faults_spec.empty()) {
      std::istringstream list(faults_spec);
      for (std::string item; std::getline(list, item, ',');) {
        const std::size_t eq = item.find('=');
        const std::string key = item.substr(0, eq);
        if (eq == std::string::npos || (key != "crash" && key != "rewire")) {
          throw std::invalid_argument("--faults: bad token '" + item +
                                      "' (want crash=N or rewire=N)");
        }
        (key == "crash" ? options.fault_crash_budget
                        : options.fault_rewire_budget) =
            static_cast<std::size_t>(
                parse_unsigned(item.substr(eq + 1), "--faults"));
      }
    }
    const std::string homes_csv =
        cli.get("homes",
                "comma-separated home nodes: fuzz or record this fixed ring "
                "instance (with --nodes) instead of drawing one",
                "")
            .value_or("");
    if (!homes_csv.empty()) {
      options.fixed_nodes = n;
      options.fixed_homes = parse_unsigned_list(homes_csv, "--homes");
    }
    const std::string out_dir =
        cli.get("out", "directory for shrunk failing traces", "").value_or("");

    if (cli.wants_help()) {
      cli.print_help(
          "udring schedule explorer: fuzz adversarial schedules, record and "
          "replay executions");
      return 0;
    }
    cli.reject_bad_flags();
    if (options.faults.non_fifo_min_phase != 0 && !options.faults.non_fifo) {
      // A phase window narrows the non-FIFO fault; alone it injects nothing,
      // and the run would fuzz the fault-free model instead.
      std::cerr << "udring_fuzz: --fault-min-phase needs --inject-non-fifo\n";
      return 2;
    }
    // A flag the chosen mode would ignore is a usage error: the run would
    // silently differ from the one asked for.
    const auto reject_with = [&cli](const std::string& flag,
                                    const std::string& mode) {
      if (cli.has(flag)) {
        throw std::invalid_argument("--" + flag + " cannot be combined with " +
                                    mode);
      }
    };
    if (!replay_path.empty()) {
      // A replay rebuilds its run from the trace alone.
      for (const std::string& flag : cli.flags()) {
        if (flag != "replay") reject_with(flag, "--replay");
      }
      return replay_mode(replay_path);
    }

    options.algorithm = explore::algorithm_from_name(algorithm_name);
    options.problem.kind = core::problem_from_name(problem_name);
    if (options.problem.kind == core::Problem::Gather) {
      options.problem.gather_g = gather_g;
    } else if (cli.has("gather-g")) {
      throw std::invalid_argument("--gather-g needs --problem=gather");
    } else if (options.problem.kind != core::Problem::Auto) {
      options.problem.gather_g = 0;  // the parameter belongs to gather only
    }
    options.topology = explore::fuzz_topology_from_name(topology_name);
    options.oracle = explore::oracle_mode_from_name(oracle_name);
    if (!record_path.empty()) {
      for (const char* flag :
           {"iterations", "min-nodes", "max-nodes", "min-agents", "max-agents",
            "workers", "oracle", "oracle-full-every", "max-failures", "faults",
            "out"}) {
        reject_with(flag, "--record");
      }
      if (!homes_csv.empty()) {
        // Fixed homes name ring nodes and fix k.
        if (options.topology != explore::FuzzTopology::Ring) {
          throw std::invalid_argument("--homes only supports --topology=ring");
        }
        if (cli.has("agents") && k != options.fixed_homes.size()) {
          throw std::invalid_argument(
              "--agents=" + std::to_string(k) + " disagrees with the " +
              std::to_string(options.fixed_homes.size()) + " --homes given");
        }
      }
      return record_mode(record_path, options, n, k,
                         explore::explore_scheduler_from_name(
                             sched_name.empty() ? "round-robin" : sched_name));
    }
    // Fuzz mode draws each instance from the size ranges, or runs --homes.
    if (cli.has("agents")) {
      throw std::invalid_argument("--agents needs --record");
    }
    if (homes_csv.empty() && cli.has("nodes")) {
      throw std::invalid_argument("--nodes needs --homes or --record");
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
