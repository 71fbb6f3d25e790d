// tools/tool_flags.h
//
// The flags udring_mc and udring_fuzz share, parsed and checked in one
// place. Only the tools include this file; the library does not.

#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/problem.h"
#include "explore/fuzz.h"
#include "mc/model_check.h"
#include "sim/fault.h"
#include "util/cli.h"

namespace udring::tools {

/// Registers --problem and --gather-g, read in `modes`, and returns the
/// goal they name. --gather-g is read only with --problem=gather.
[[nodiscard]] inline core::ProblemSpec problem_flags(Cli& cli,
                                                     const Cli::Modes& modes) {
  core::ProblemSpec problem;
  problem.kind = core::problem_from_name(
      *cli.get("problem",
               "goal oracle the runs are judged against: "
               "auto|deploy|gather|disperse (auto = the algorithm's natural "
               "problem)",
               "auto", modes));
  const std::size_t gather_g = cli.get_size(
      "gather-g", 2, "group size g for --problem=gather (0 = total gathering)",
      modes);
  if (problem.kind == core::Problem::Gather) {
    problem.gather_g = gather_g;
  } else if (problem.kind != core::Problem::Auto) {
    problem.gather_g = 0;  // the parameter belongs to gather only
  }
  cli.read_only_if("gather-g", problem.kind == core::Problem::Gather,
                   "with --problem=gather");
  return problem;
}

/// Registers --inject-non-fifo and --fault-min-phase, read in `modes`, and
/// returns the plan they set. A phase window only narrows the non-FIFO
/// fault, so --fault-min-phase is read only with --inject-non-fifo.
[[nodiscard]] inline sim::FaultPlan non_fifo_flags(Cli& cli,
                                                   const Cli::Modes& modes) {
  sim::FaultPlan faults;
  faults.non_fifo = cli.get_flag(
      "inject-non-fifo", "TEST-ONLY: weaken the FIFO link guarantee", modes);
  faults.non_fifo_min_phase = cli.get_size(
      "fault-min-phase", 0,
      "restrict the non-FIFO fault to actions at/after this phase tag "
      "(needs --inject-non-fifo)",
      modes);
  cli.read_only_if("fault-min-phase", faults.non_fifo,
                   "with --inject-non-fifo");
  return faults;
}

/// Parses `flag`'s comma list of crash=N and rewire=N ("crash=1,rewire=2")
/// into a budget's crash and rewire counts.
[[nodiscard]] inline mc::FaultBudget parse_fault_budget(
    const std::string& list, const std::string& flag) {
  mc::FaultBudget budget;
  std::istringstream items(list);
  for (std::string item; std::getline(items, item, ',');) {
    const std::size_t eq = item.find('=');
    const std::string key = item.substr(0, eq);
    if (eq == std::string::npos || (key != "crash" && key != "rewire")) {
      throw std::invalid_argument(flag + ": bad token '" + item +
                                  "' (want crash=N or rewire=N)");
    }
    (key == "crash" ? budget.crashes : budget.rewires) =
        static_cast<std::size_t>(parse_unsigned(item.substr(eq + 1), flag));
  }
  return budget;
}

/// The ring homes `--homes=<csv>` names. Homes are ring nodes, so another
/// `topology` is an error; and they fix k, so a given `count_flag` (--k,
/// --agents) whose `count` differs is an error too.
[[nodiscard]] inline std::vector<std::size_t> fixed_ring_homes(
    const Cli& cli, const std::string& csv, explore::FuzzTopology topology,
    const std::string& count_flag, std::size_t count) {
  if (topology != explore::FuzzTopology::Ring) {
    throw std::invalid_argument("--homes only supports --topology=ring");
  }
  std::vector<std::size_t> homes = parse_unsigned_list(csv, "--homes");
  if (cli.has(count_flag) && count != homes.size()) {
    throw std::invalid_argument("--" + count_flag + "=" +
                                std::to_string(count) + " disagrees with the " +
                                std::to_string(homes.size()) +
                                " --homes given");
  }
  return homes;
}

}  // namespace udring::tools
