// bench_streaming_campaign — the huge-n / streaming-aggregation artifact.
//
// Two sections, each one claim of the streaming story:
//  1. Huge-n cells: grids at n ∈ {10^5, 10^6} swept through the campaign
//     engine (the per-worker ExecutionState arena is the only n-sized
//     state).
//  2. Checked-fuzz oracle: fuzzer steps/s at n = 4096 under the full
//     per-action invariant checker vs the incremental one; the acceptance
//     number is a ≥2× speedup.
//
// Two checks fail the report: a huge-n sweep with a failed scenario, and
// report digests that differ between the two oracles. UDRING_REPORT_SMOKE
// selects the smoke sizes (n = 10^4 sweep, n = 512 oracle).

#include <sys/resource.h>

#include <chrono>

#include "explore/fuzz.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

[[nodiscard]] double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- 1. huge-n grids --------------------------------------------------------

void report_huge_n() {
  print_section(std::cout, "Huge-n streaming sweeps");
  const std::vector<std::size_t> sizes =
      smoke() ? std::vector<std::size_t>{10'000}
              : std::vector<std::size_t>{100'000, 1'000'000};
  Table table({"n", "k", "scenarios", "wall ms", "moves/agent", "ok",
               "peak RSS MiB"});
  for (const std::size_t n : sizes) {
    exp::CampaignGrid grid;
    grid.algorithms = {core::Algorithm::KnownKFull};
    grid.schedulers = {sim::SchedulerKind::RoundRobin};
    grid.node_counts = {n};
    grid.agent_counts = {8};
    grid.seeds = smoke() ? 1 : 2;
    const auto start = std::chrono::steady_clock::now();
    const exp::CampaignResult result =
        exp::run_campaign_streaming(grid, {.workers = 1});
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    const exp::Averages avg = result.averages(
        exp::CellKey{core::Algorithm::KnownKFull, exp::ConfigFamily::RandomAny,
                     sim::SchedulerKind::RoundRobin, n, 8, 1});
    table.add_row({Table::num(n), "8", Table::num(result.scenario_count),
                   Table::num(ms, 0), Table::num(avg.moves / 8.0, 0),
                   check(result.all_ok()),
                   Table::num(peak_rss_mib(), 0)});
  }
  std::cout << table;
  std::cout << "per-agent moves stay O(n log k)-shaped as n climbs; the only\n"
               "n-sized memory is the single pooled ExecutionState arena.\n\n";
}

// ---- 2. checked-fuzz oracle at n = 4096 -------------------------------------

[[nodiscard]] explore::FuzzOptions oracle_options(explore::OracleMode oracle,
                                                 std::size_t n) {
  explore::FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKFull;
  options.min_nodes = options.max_nodes = n;
  options.min_agents = options.max_agents = 8;
  options.iterations = smoke() ? 1 : 3;
  options.workers = 1;
  options.oracle = oracle;
  return options;
}

void report_oracle() {
  print_section(std::cout, "Checked-fuzz oracle: full vs incremental");
  const std::size_t n = smoke() ? 512 : 4096;
  Table table({"oracle", "n", "actions", "wall ms", "steps/s"});
  double full_ms = 0, incremental_ms = 0;
  std::uint64_t full_digest = 0, incremental_digest = 0;
  for (const explore::OracleMode oracle :
       {explore::OracleMode::Full, explore::OracleMode::Incremental}) {
    const auto start = std::chrono::steady_clock::now();
    const explore::FuzzReport report =
        explore::run_fuzz(oracle_options(oracle, n));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    (oracle == explore::OracleMode::Full ? full_ms : incremental_ms) = ms;
    (oracle == explore::OracleMode::Full ? full_digest : incremental_digest) =
        report.digest;
    table.add_row({std::string(explore::to_string(oracle)), Table::num(n),
                   Table::num(report.total_actions), Table::num(ms, 1),
                   Table::num(1000.0 * static_cast<double>(report.total_actions) / ms, 0)});
  }
  std::cout << table;
  const double speedup = full_ms / incremental_ms;
  std::cout << "incremental oracle speedup at n=" << n << ": "
            << Table::num(speedup, 1) << "x (target >= 2x), report digests "
            << check(full_digest == incremental_digest, "match", "DIFFER")
            << ".\n";
}

void print_report() {
  std::cout << "Streaming campaign engine: huge-n sweeps + O(dirty) "
               "incremental oracle.\n\n";
  report_huge_n();
  report_oracle();
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
