// bench_campaign_engine — the campaign engine's own artifact: runs the
// acceptance grid (n ∈ {16..64}, k ∈ {2..8}, 16 seeds, 2 schedulers —
// 1568 scenarios) serially and sharded, verifies the worker-count
// determinism contract (identical digests), and reports throughput and
// parallel speedup. A digest mismatch on any row exits 2, so the report
// doubles as the CI digest smoke. Set UDRING_CAMPAIGN_SMOKE=1 for the tiny
// CI grid.

#include <chrono>
#include <cstdlib>

#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

exp::CampaignGrid engine_grid() {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.schedulers = {sim::SchedulerKind::RoundRobin, sim::SchedulerKind::Random};
  if (std::getenv("UDRING_CAMPAIGN_SMOKE") != nullptr) {
    grid.node_counts = {16, 24};
    grid.agent_counts = {2, 4};
    grid.seeds = 2;  // 16 scenarios: enough to exercise every engine path
  } else {
    grid.node_counts = {16, 24, 32, 40, 48, 56, 64};
    grid.agent_counts = {2, 3, 4, 5, 6, 7, 8};
    grid.seeds = 16;  // 7 × 7 × 2 × 16 = 1568 scenarios
  }
  return grid;
}

double run_timed(const exp::CampaignGrid& grid, std::size_t workers,
                 exp::CampaignResult& out) {
  const auto start = std::chrono::steady_clock::now();
  out = exp::run_campaign_streaming(grid, {.workers = workers});
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void print_report() {
  const exp::CampaignGrid grid = engine_grid();
  const std::size_t scenario_count = exp::expand(grid).size();
  std::cout << "Campaign engine scaling: " << scenario_count
            << " scenarios (known-k-full, round-robin + random schedulers).\n";

  exp::CampaignResult serial;
  const double serial_ms = run_timed(grid, 1, serial);

  print_section(std::cout, "Worker scaling");
  Table table({"workers", "wall ms", "scenarios/s", "speedup", "digest match"});
  table.add_row({"1", Table::num(serial_ms, 0),
                 Table::num(1000.0 * static_cast<double>(scenario_count) / serial_ms, 0),
                 "1.0", "-"});
  bool digests_match = true;
  for (const std::size_t workers : {2u, 4u, 8u}) {
    exp::CampaignResult sharded;
    const double ms = run_timed(grid, workers, sharded);
    const bool match = sharded.digest() == serial.digest();
    digests_match = digests_match && match;
    table.add_row({Table::num(workers), Table::num(ms, 0),
                   Table::num(1000.0 * static_cast<double>(scenario_count) / ms, 0),
                   Table::num(serial_ms / ms, 2), match ? "yes" : "NO"});
  }
  std::cout << table;

  std::cout << "\nfailures: " << serial.failures << " / " << scenario_count
            << "   digest: " << std::hex << serial.digest() << std::dec << '\n';
  if (!serial.all_ok()) {
    for (const std::string& sample : serial.failure_samples) {
      std::cout << "  FAIL " << sample << '\n';
    }
  }
  if (!digests_match) {
    std::cout << "ERROR: a digest differs from the serial run.\n";
    std::exit(2);
  }
  std::cout << "\nEvery row's digest matches the serial run: aggregation is\n"
               "byte-identical at any worker count (per-scenario substreams +\n"
               "commutative folds), so sharded campaigns are replayable\n"
               "evidence, not just fast sweeps.\n";
}

void register_timings() {
  for (const std::size_t workers : {1u, 8u}) {
    const std::string name =
        "campaign/n=32..48/k=4,8/workers=" + std::to_string(workers);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [workers](benchmark::State& state) {
          exp::CampaignGrid grid;
          grid.algorithms = {core::Algorithm::KnownKFull};
          grid.schedulers = {sim::SchedulerKind::RoundRobin,
                             sim::SchedulerKind::Random};
          grid.node_counts = {32, 48};
          grid.agent_counts = {4, 8};
          grid.seeds = 4;
          for (auto _ : state) {
            const exp::CampaignResult result =
                exp::run_campaign_streaming(grid, {.workers = workers});
            benchmark::DoNotOptimize(result.failures);
            if (!result.all_ok()) state.SkipWithError("campaign failed");
          }
          state.counters["workers"] = static_cast<double>(workers);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, print_report, register_timings);
}
