// bench/bench_fault_overhead.cpp
//
// The A/B the structured fault-injection layer (sim/fault.h) ships with: a
// plan whose events all fall due after a run's last action changes nothing.
// A plan with events makes the execution loop consult its fault cursor after
// every action, so that run takes the event path throughout while nothing
// fires, and its actions, moves, makespan, final positions and event log
// must equal the plan-off run's. A fault that fires early (a due test off by
// one) puts a crash in the log and fails the check.

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
  spec.sim_options.record_events = true;
  return spec;
}

void print_report() {
  core::RunContext context;
  const core::RunSpec off = base_spec();
  const core::RunReport a = context.run(core::Algorithm::KnownKFull, off);
  const std::uint64_t off_log = context.state().log().digest();
  // A crash and a rewiring point, both due at the action after the last.
  const std::size_t due = a.result.actions + 1;
  core::RunSpec late = off;
  late.sim_options.faults.crashes = {{0, due}};
  late.sim_options.faults.rewire_at = {due};
  const core::RunReport b = context.run(core::Algorithm::KnownKFull, late);
  const bool identical = a.success && b.success &&
                         a.result.actions == b.result.actions &&
                         a.total_moves == b.total_moves &&
                         a.makespan == b.makespan &&
                         a.final_positions == b.final_positions &&
                         off_log == context.state().log().digest();
  std::cout << "Fault-layer A/B (n=" << kNodes << ", k=" << kAgents
            << "): plan off vs a crash and a rewiring due at action " << due
            << ": " << check(identical, "identical", "DIVERGED") << " ("
            << a.result.actions << " actions, " << a.total_moves
            << " moves)\n";
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
