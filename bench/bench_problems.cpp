// bench_problems — the cross-problem reproduction artifact.
//
// Three sections, one claim each of the ProblemSpec/GoalOracle redesign:
//  1. Table-1-style cross-problem campaign: one grid sweeps uniform
//     deployment, g-partial gathering, and dispersion over PAIRED instances
//     (the scenario substream excludes the algorithm and problem, so every
//     problem row of an (n, k) point runs on identical home draws) and
//     reports the paper's three measures — moves, time, memory — per
//     problem side by side.
//  2. Determinism: the cross-problem campaign digest is byte-identical at
//     worker counts {1, 4, hw} — the problem axis inherits the engine's
//     worker-invariance contract.
//  3. Exhaustive verification: mc::check walks every schedule of small
//     gathering and dispersion instances (solvable, unsolvable-periodic,
//     and a deployer judged under the dispersion oracle) and the verdict +
//     report digest match between the serial walk and a frontier-sharded
//     parallel walk.
//
// A failed scenario, a digest mismatch or an unverified instance fails the
// report.

#include <string>
#include <vector>

#include "mc/model_check.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

/// The one grid every section reuses: the three problem families on shared
/// instance coordinates. Auto on the problem axis resolves per algorithm —
/// deploy for KnownKFull, gather(g=2) for GatherRing, disperse for
/// DisperseRing — which keeps the campaign digest on the historical
/// (pre-problem-axis) byte layout.
[[nodiscard]] exp::CampaignGrid cross_problem_grid() {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull, core::Algorithm::GatherRing,
                     core::Algorithm::DisperseRing};
  grid.schedulers = {sim::SchedulerKind::RoundRobin};
  grid.node_counts = {16, 32, 64};
  grid.agent_counts = {4, 8};
  grid.seeds = 8;
  return grid;
}

// ---- 1. Table-1-style cross-problem report ----------------------------------

void report_cross_problem_table() {
  print_section(std::cout, "Cross-problem campaign (paired instances)");
  const exp::CampaignGrid grid = cross_problem_grid();
  const exp::CampaignResult result =
      exp::run_campaign_streaming(grid, {.workers = 0});

  // Tail columns ride along with the means: the per-cell quantile sketches
  // make p50/p90/p99 mergeable (and therefore digest-stable) statistics, so
  // the cross-problem comparison shows distribution shape, not just averages.
  Table table({"problem", "algorithm", "n", "k", "runs", "ok", "moves",
               "moves p50/90/99", "time", "time p50/90/99", "mem bits"});
  const auto triple = [](double p50, double p90, double p99) {
    return Table::num(p50, 0) + "/" + Table::num(p90, 0) + "/" +
           Table::num(p99, 0);
  };
  for (const core::Algorithm algorithm : grid.algorithms) {
    const core::ProblemSpec resolved = core::resolve_problem(algorithm, {});
    for (const std::size_t n : grid.node_counts) {
      for (const std::size_t k : grid.agent_counts) {
        const exp::Averages avg = result.averages(
            exp::CellKey{algorithm, exp::ConfigFamily::RandomAny,
                         sim::SchedulerKind::RoundRobin, n, k, 1});
        if (avg.runs == 0) continue;
        table.add_row({core::to_string(resolved),
                       std::string(core::to_string(algorithm)), Table::num(n),
                       Table::num(k), Table::num(avg.runs),
                       Table::num(avg.success_rate * 100.0, 1) + "%",
                       Table::num(avg.moves, 1),
                       triple(avg.moves_p50, avg.moves_p90, avg.moves_p99),
                       Table::num(avg.makespan, 1),
                       triple(avg.makespan_p50, avg.makespan_p90,
                              avg.makespan_p99),
                       Table::num(avg.memory_bits, 1)});
      }
    }
  }
  std::cout << table;
  std::cout << "every problem row of an (n, k) point ran on the same home "
               "draws\n(the scenario substream excludes algorithm and "
               "problem), so the\ncolumns compare move/time/memory across "
               "problems, paired.\n\n";
  expect(result.all_ok(), "every cross-problem scenario succeeds");
  if (!result.all_ok()) std::cout << "CAMPAIGN FAILURES:\n" << result.summary();
}

// ---- 2. worker-count determinism over the problem axis ----------------------

void report_determinism() {
  print_section(std::cout, "Cross-problem digest vs worker count");
  const exp::CampaignGrid grid = cross_problem_grid();
  const exp::CampaignResult reference =
      exp::run_campaign_streaming(grid, {.workers = 1});
  Table table({"workers", "scenarios", "digest match"});
  bool all_match = true;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {  // 0 = hardware
    const exp::CampaignResult run =
        exp::run_campaign_streaming(grid, {.workers = workers});
    const bool ok = run.digest() == reference.digest();
    all_match = all_match && ok;
    table.add_row({Table::num(run.workers_used), Table::num(run.scenario_count),
                   check(ok)});
  }
  std::cout << table;
  std::cout << (all_match ? "the problem axis preserves the engine's "
                            "worker-invariant digest contract.\n\n"
                          : "DIGEST MISMATCH across worker counts.\n\n");
}

// ---- 3. exhaustive verification of small instances --------------------------

struct McCase {
  const char* label;
  core::Algorithm algorithm;
  core::ProblemSpec problem;
  std::vector<std::size_t> homes;
};

void report_exhaustive() {
  print_section(std::cout, "Exhaustive verification (every schedule, n=6)");
  const std::vector<McCase> cases = {
      {"gather g=2 solvable", core::Algorithm::GatherRing, {}, {0, 2}},
      {"gather g=2 unsolvable-periodic", core::Algorithm::GatherRing, {}, {0, 3}},
      {"disperse", core::Algorithm::DisperseRing, {}, {0, 2}},
      {"deployer under dispersion oracle",
       core::Algorithm::KnownKFull,
       {core::Problem::Disperse, 0},
       {0, 2}},
  };
  Table table({"case", "schedules", "states", "verdict", "serial==sharded"});
  bool all_ok = true;
  for (const McCase& c : cases) {
    mc::CheckRequest request;
    request.algorithm = c.algorithm;
    request.problem = c.problem;
    request.node_count = 6;
    request.homes = c.homes;
    // Identical shard decomposition, different worker counts: the report
    // digest (verdict + every stat) must match byte-for-byte.
    mc::McOptions serial;
    serial.frontier_target = 8;
    serial.workers = 1;
    mc::McOptions sharded;
    sharded.frontier_target = 8;
    sharded.workers = 4;
    const mc::ModelCheckReport a = mc::check(request, serial);
    const mc::ModelCheckReport b = mc::check(request, sharded);
    const bool verified = a.ok && a.complete;
    const bool match = a.digest() == b.digest();
    all_ok = all_ok && verified && match;
    expect(verified, std::string(c.label) + " verifies");
    table.add_row({c.label, Table::num(a.stats.schedules),
                   Table::num(a.stats.states_expanded), a.verdict,
                   check(match)});
  }
  std::cout << table;
  std::cout << (all_ok ? "gathering and dispersion are verified over ALL "
                         "schedules of these instances,\nbyte-identically at "
                         "any worker count.\n"
                       : "VERIFICATION FAILED on a cross-problem instance.\n");
}

void print_report() {
  std::cout << "Cross-problem artifact: uniform deployment, g-partial "
               "gathering, and dispersion\nthrough one ProblemSpec/GoalOracle "
               "verification stack.\n\n";
  report_cross_problem_table();
  report_determinism();
  report_exhaustive();
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
