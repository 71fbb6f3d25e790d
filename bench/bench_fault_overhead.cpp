// bench/bench_fault_overhead.cpp
//
// The A/B guarantee the structured fault-injection layer (sim/fault.h)
// ships with: an EMPTY FaultPlan is free. The execution loop consults its
// fault cursor only when the plan carries events, so a default-constructed
// SimOptions (fault plan "off") and an explicitly installed empty plan must
// produce byte-identical runs. The report checks the equality and fails on
// any mismatch.

#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

constexpr std::size_t kNodes = 64;
constexpr std::size_t kAgents = 8;

[[nodiscard]] core::RunSpec base_spec() {
  core::RunSpec spec;
  spec.node_count = kNodes;
  Rng rng(42);
  spec.homes = draw_homes(ConfigFamily::RandomAny, kNodes, kAgents, 1, rng);
  spec.scheduler = sim::SchedulerKind::RoundRobin;
  return spec;
}

/// The zero-cost claim, checked exactly: a run with no plan installed and a
/// run with an explicitly installed empty plan must be THE SAME run.
void print_report() {
  const core::RunSpec off = base_spec();
  core::RunSpec empty = base_spec();
  empty.sim_options.faults = sim::FaultPlan{};
  empty.sim_options.faults.normalize();
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
            << check(identical, "identical", "DIVERGED") << " ("
            << a.result.actions << " actions, " << a.total_moves
            << " moves)\n";
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
