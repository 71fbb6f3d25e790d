// bench/bench_fault_overhead.cpp
//
// Cost of the structured fault-injection layer (sim/fault.h) on the action
// loop, and the A/B guarantee the layer ships with: an EMPTY FaultPlan is
// free. The execution loop consults its fault cursor only when the plan
// carries events, so a default-constructed SimOptions (fault plan "off")
// and an explicitly installed empty plan must time within noise of each
// other AND produce byte-identical runs — the report section below checks
// the equality and exits nonzero on any mismatch.
//
//   bench_fault_overhead                       # report + timings
//   bench_fault_overhead --benchmark_filter=none   # digest A/B only
//
// Rows:
//   BM_ActionLoop/off     — default SimOptions, no plan ever mentioned
//   BM_ActionLoop/empty   — an explicitly installed (still empty) plan
//   BM_ActionLoop/crash   — one crash-stop fault live in the loop
//   BM_ActionLoop/rewire  — two dynamic-ring rewiring points live

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>

#include "support/bench_common.h"

namespace {

using namespace udring;

constexpr std::size_t kNodes = 64;
constexpr std::size_t kAgents = 8;

[[nodiscard]] core::RunSpec base_spec() {
  core::RunSpec spec;
  spec.node_count = kNodes;
  Rng rng(42);
  spec.homes =
      bench::draw_homes(bench::ConfigFamily::RandomAny, kNodes, kAgents, 1, rng);
  spec.scheduler = sim::SchedulerKind::RoundRobin;
  return spec;
}

[[nodiscard]] sim::FaultPlan plan_for(const std::string& variant) {
  sim::FaultPlan plan;
  if (variant == "crash") {
    plan.crashes = {{1, 24}};
  } else if (variant == "rewire") {
    plan.rewire_at = {16, 48};
  }
  // "off" and "empty" both return the empty plan; "off" never installs it.
  plan.normalize();
  return plan;
}

void BM_ActionLoop(benchmark::State& state, const std::string& variant) {
  core::RunSpec spec = base_spec();
  if (variant != "off") spec.sim_options.faults = plan_for(variant);
  core::RunContext ctx;
  std::size_t actions = 0;
  for (auto _ : state) {
    const core::RunReport report =
        ctx.run(core::Algorithm::KnownKFull, spec);
    benchmark::DoNotOptimize(report.total_moves);
    actions += report.result.actions;
    // Fault variants are EXPECTED to degrade the goal; only the fault-free
    // rows assert success, so a planted failure cannot masquerade as a
    // timing artifact.
    if ((variant == "off" || variant == "empty") && !report.success) {
      state.SkipWithError("fault-free run failed its goal oracle");
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(actions));
  state.counters["actions/s"] = benchmark::Counter(
      static_cast<double>(actions), benchmark::Counter::kIsRate);
}

/// The zero-cost claim, checked exactly: a run with no plan installed and a
/// run with an explicitly installed empty plan must be THE SAME run.
void print_report() {
  const core::RunSpec off = base_spec();
  core::RunSpec empty = base_spec();
  empty.sim_options.faults = plan_for("empty");
  const core::RunReport a = core::run_algorithm(core::Algorithm::KnownKFull, off);
  const core::RunReport b =
      core::run_algorithm(core::Algorithm::KnownKFull, empty);
  const bool identical = a.success && b.success &&
                         a.result.actions == b.result.actions &&
                         a.total_moves == b.total_moves &&
                         a.makespan == b.makespan &&
                         a.final_positions == b.final_positions;
  std::cout << "Fault-layer A/B (n=" << kNodes << ", k=" << kAgents
            << "): plan-off vs empty-plan-installed: "
            << (identical ? "identical" : "DIVERGED") << " ("
            << a.result.actions << " actions, " << a.total_moves
            << " moves)\n";
  if (!identical) {
    std::cerr << "bench_fault_overhead: an empty FaultPlan changed the "
                 "execution — the zero-cost contract is broken\n";
    std::exit(1);
  }
}

void register_timings() {
  for (const char* variant : {"off", "empty", "crash", "rewire"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_ActionLoop/") + variant).c_str(),
        [variant](benchmark::State& state) { BM_ActionLoop(state, variant); })
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_bench_main(argc, argv, print_report, register_timings);
}
