// bench_huge_instance — the zero-steady-state-allocation artifact.
//
// Runs known-k-full on an n ≥ 100k ring (and the Euler-tour ring of a
// ~n/2-node random tree) through one pooled ExecutionState, counting every
// global operator new via an instrumented allocator:
//
//  - cold run:  reset() on a fresh arena + full execution. Allocations here
//               are the O(n) arena build plus O(k) programs.
//  - warm run:  reset() on the *same* arena + full execution. reset() may
//               allocate only the O(k) per-run objects (the agent
//               programs); the action loop itself must allocate NOTHING —
//               that is the steady-state contract campaigns rely on.
//
// A warm run that allocates more than its O(k) allowance fails the report.

#include <chrono>

#include "embed/topology.h"
#include "embed/tree.h"
#include "support/bench_common.h"
// Defines the global counting operator new for this binary (one TU only);
// measurement windows snapshot udring::allocation_count(). Compiled out
// under sanitizers, where every count reads 0 and the audit passes
// vacuously; the non-sanitized ctest legs are the ones that enforce it.
#include "util/counting_allocator.h"

namespace {

using namespace udring;
using namespace udring::bench;

struct RunStats {
  std::size_t reset_allocs = 0;
  std::size_t run_allocs = 0;
  std::size_t actions = 0;
  double run_ms = 0;
};

RunStats timed_run(sim::ExecutionState& state, const sim::Instance& instance,
                   sim::Scheduler& scheduler) {
  RunStats stats;
  const std::size_t before_reset = allocation_count();
  state.reset(instance);
  stats.reset_allocs = allocation_count() - before_reset;

  const auto start = std::chrono::steady_clock::now();
  const std::size_t before_run = allocation_count();
  const sim::RunResult result = state.run(scheduler);
  stats.run_allocs = allocation_count() - before_run;
  const auto stop = std::chrono::steady_clock::now();
  stats.actions = result.actions;
  stats.run_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  expect(result.quiescent(), "the run quiesces within its action limit");
  return stats;
}

void report_case(const char* label, const sim::Instance& instance) {
  sim::ExecutionState state;
  sim::RoundRobinScheduler scheduler;
  const RunStats cold = timed_run(state, instance, scheduler);
  const RunStats warm = timed_run(state, instance, scheduler);

  Table table({"phase", "reset allocs", "run allocs", "actions",
               "allocs/action", "wall ms", "actions/s"});
  for (const auto& [phase, stats] : {std::pair<const char*, const RunStats&>{
                                         "cold", cold},
                                     {"warm (pooled)", warm}}) {
    table.add_row({phase, Table::num(stats.reset_allocs),
                   Table::num(stats.run_allocs), Table::num(stats.actions),
                   Table::num(static_cast<double>(stats.run_allocs) /
                                  static_cast<double>(stats.actions),
                              6),
                   Table::num(stats.run_ms, 0),
                   Table::num(1000.0 * static_cast<double>(stats.actions) /
                                  stats.run_ms,
                              0)});
  }
  std::cout << label << " (n=" << instance.node_count()
            << ", k=" << instance.agent_count() << "):\n"
            << table;
  // The contract: nothing on the action path may allocate. Algorithms are
  // allowed O(k) one-off allocations per run (e.g. Booth's failure function
  // in known-k-full's deployment step) — what must never appear is a count
  // that scales with the ~10^6 actions.
  const std::size_t per_run_allowance = 16 * instance.agent_count();
  expect(warm.run_allocs <= per_run_allowance,
         std::string(label) + ": the warm run stays within its allowance");
  if (warm.run_allocs > per_run_allowance) {
    std::cout << "WARNING: warm run allocated " << warm.run_allocs
              << " times (allowance " << per_run_allowance
              << ") — the steady-state action path regressed.\n";
  } else {
    std::cout << "warm run: " << warm.run_allocs
              << " allocations over " << warm.actions
              << " actions (O(k) per-run constants; the action loop itself "
               "is allocation-free).\n";
  }
  std::cout << '\n';
}

void print_report() {
  const std::size_t n = 100'000;
  const std::size_t k = 8;
  std::cout << "Huge-instance steady-state allocation audit "
               "(known-k-full, round-robin).\n\n";

  std::vector<sim::NodeId> homes;
  for (std::size_t i = 0; i < k; ++i) homes.push_back(i * (n / k));
  const sim::Instance ring_instance(
      n, homes, core::make_program_factory(core::Algorithm::KnownKFull, k));
  report_case("unidirectional ring", ring_instance);

  // The native topology path at scale: the Euler tour of a random tree on
  // ~n/2 nodes is a virtual ring of ~n steps with label/port views attached.
  Rng rng(1);
  const std::size_t tree_nodes = n / 2;
  const embed::TreeNetwork tree = embed::random_tree(tree_nodes, rng);
  sim::Topology topology = embed::euler_tour_topology(tree);
  std::vector<embed::TreeNodeId> tree_homes;
  for (std::size_t i = 0; i < k; ++i) tree_homes.push_back(i * (tree_nodes / k));
  std::vector<sim::NodeId> virtual_home_list =
      embed::virtual_homes(topology, tree_homes);
  const sim::Instance tree_instance(
      std::move(topology), std::move(virtual_home_list),
      core::make_program_factory(core::Algorithm::KnownKFull, k));
  report_case("euler-tree virtual ring", tree_instance);
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
