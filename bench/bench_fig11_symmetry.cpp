// bench_fig11_symmetry — reproduces Figures 1 and 11 / Theorem 6: the
// relaxed algorithm's costs scale as 1/l with the symmetry degree l of the
// initial configuration.
//
// For fixed (n, k) we sweep l over the divisors of gcd(n, k) and report
// moves, ideal time and peak memory together with their l-normalized
// versions (flat columns = the theorem's shape). The worked Fig 1(a)/(b)
// and Fig 11 instances are reported verbatim.

#include "core/unknown_relaxed.h"
#include "support/bench_common.h"
#include "util/bits.h"

namespace {

using namespace udring;
using namespace udring::bench;

void print_report() {
  std::cout << "Reproduction of Fig 1 / Fig 11 / Theorem 6: cost vs symmetry\n"
               "degree l for Algorithms 4-6 (which never learn n, k, or l).\n";

  print_section(std::cout, "The paper's worked examples");
  {
    Table table({"instance", "n", "k", "l", "est. N", "moves", "time", "uniform"});
    struct Worked {
      const char* name;
      std::size_t n;
      std::vector<std::size_t> homes;
    };
    for (const Worked& worked :
         {Worked{"Fig 1(a) aperiodic", gen::kFig1aNodes, gen::fig1a_homes()},
          Worked{"Fig 1(b) l=2", gen::kFig1bNodes, gen::fig1b_homes()},
          Worked{"Fig 11 (6,2)-ring", gen::kFig11Nodes, gen::fig11_homes()},
          Worked{"Fig 9 trap ring", gen::kFig9Nodes, gen::fig9_homes()}}) {
      core::RunSpec spec;
      spec.node_count = worked.n;
      spec.homes = worked.homes;
      auto simulator = core::make_simulator(core::Algorithm::UnknownRelaxed, spec);
      sim::SynchronousScheduler scheduler;
      (void)simulator->run(scheduler);
      const auto& agent0 = dynamic_cast<const core::UnknownRelaxedAgent&>(
          simulator->program(0));
      const bool uniform =
          sim::UniformDeploymentOracle(false).check_goal(*simulator).ok;
      table.add_row(
          {worked.name, Table::num(worked.n), Table::num(worked.homes.size()),
           Table::num(core::config_symmetry_degree(worked.homes, worked.n)),
           Table::num(agent0.estimated_n()),
           Table::num(simulator->metrics().total_moves()),
           Table::num(static_cast<std::size_t>(simulator->metrics().makespan())),
           check(uniform)});
    }
    std::cout << table
              << "on Fig 11's (6,2)-ring the agents estimate N = 6 — the\n"
                 "fundamental ring — and still deploy the 12-ring uniformly.\n";
  }

  print_section(std::cout, "Theorem 6 — 1/l scaling (n = 384, k = 32)");
  {
    const std::size_t n = 384, k = 32;
    Table table({"l", "moves", "moves·l/(kn)", "time", "time·l/n", "mem bits",
                 "mem·l/(k·lg(n/l))", "ok"});
    for (const std::size_t l : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const ConfigFamily family =
          l == 1 ? ConfigFamily::RandomAperiodic : ConfigFamily::Periodic;
      const Averages avg =
          exp::measure_cell(core::Algorithm::UnknownRelaxed, family, n, k, l);
      const double lg_nl = static_cast<double>(bit_width(n / l));
      table.add_row(
          {Table::num(l), Table::num(avg.moves, 0),
           Table::num(avg.moves * static_cast<double>(l) /
                          static_cast<double>(k * n),
                      2),
           Table::num(avg.makespan, 0),
           Table::num(avg.makespan * static_cast<double>(l) /
                          static_cast<double>(n),
                      2),
           Table::num(avg.memory_bits, 0),
           Table::num(avg.memory_bits * static_cast<double>(l) /
                          (static_cast<double>(k) * lg_nl),
                      2),
           check(avg.success_rate == 1.0)});
    }
    std::cout << table
              << "the l-normalized columns are flat: O(kn/l) moves, O(n/l) time,\n"
                 "O((k/l)·log(n/l)) memory. At l = k the relaxed algorithm beats\n"
                 "even the known-k algorithms (O(n) total moves) — symmetry that\n"
                 "dooms rendezvous is pure profit for uniform deployment.\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
