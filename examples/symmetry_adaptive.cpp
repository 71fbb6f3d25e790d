// symmetry_adaptive — Theorem 6's 1/l speedup, live (§4.2, Figs 1 and 11).
//
// The relaxed algorithm (no knowledge of k or n) adapts to the symmetry
// degree l of the initial configuration: agents on an (N, l)-ring settle for
// the fundamental ring estimate N = n/l and finish in O(kn/l) moves and
// O(n/l) time. This example runs the same n and k across every feasible l
// and prints the measured costs.
//
//   ./symmetry_adaptive --n=48 --k=8 --seed=5

#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "config/generators.h"
#include "core/runner.h"
#include "core/unknown_relaxed.h"
#include "util/bits.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace udring;
  Cli cli(argc, argv);
  const std::size_t n = cli.get_size("n", 48, "ring size");
  const std::size_t k = cli.get_size("k", 8, "number of agents");
  const std::uint64_t seed = cli.get_u64("seed", 5, "rng seed");
  if (cli.wants_help()) {
    cli.print_help("relaxed uniform deployment cost as a function of symmetry degree");
    return EXIT_SUCCESS;
  }
  try {
    cli.reject_bad_flags();  // a misspelt or repeated flag is a usage error
  } catch (const std::invalid_argument& error) {
    std::cerr << argv[0] << ": " << error.what() << '\n';
    return 2;
  }

  std::cout << "symmetry_adaptive: relaxed algorithm on n=" << n << ", k=" << k
            << " for every symmetry degree l | gcd(n, k)\n\n";

  Rng rng(seed);
  Table table({"l", "est. ring N", "total moves", "moves/(kn)", "ideal time",
               "peak memory (bits)"});

  const std::size_t g = gcd(n, k);
  for (std::size_t l = 1; l <= g; ++l) {
    if (g % l != 0) continue;
    if (k / l == 1 && l != k) continue;  // single agent per segment needs l = k
    core::RunSpec spec;
    spec.node_count = n;
    spec.homes = l == 1 ? gen::random_homes(n, k, rng)
                        : gen::periodic_homes(n, k, l, rng);
    while (l == 1 && core::config_symmetry_degree(spec.homes, n) != 1) {
      spec.homes = gen::random_homes(n, k, rng);
    }
    spec.scheduler = sim::SchedulerKind::Synchronous;
    spec.seed = seed;

    auto simulator = core::make_simulator(core::Algorithm::UnknownRelaxed, spec);
    auto scheduler = sim::make_scheduler(spec.scheduler, seed, k);
    (void)simulator->run(*scheduler);
    const auto check = sim::UniformDeploymentOracle(false).check_goal(*simulator);
    if (!check.ok) {
      std::cerr << "l=" << l << " failed: " << check.reason << "\n";
      return EXIT_FAILURE;
    }
    const auto& agent0 =
        dynamic_cast<const core::UnknownRelaxedAgent&>(simulator->program(0));
    const std::size_t moves = simulator->metrics().total_moves();
    table.add_row({Table::num(l), Table::num(agent0.estimated_n()),
                   Table::num(moves),
                   Table::num(static_cast<double>(moves) /
                                  static_cast<double>(k * n),
                              2),
                   Table::num(static_cast<std::size_t>(
                       simulator->metrics().makespan())),
                   Table::num(simulator->metrics().max_memory_bits())});
  }
  std::cout << table << "\n";
  std::cout << "Reading the table: every cost column shrinks like 1/l — more\n"
            << "symmetric starts are cheaper (Theorem 6), even though the agents\n"
            << "never learn n, k, or l. On fully symmetric starts (l = k) the\n"
            << "total work is O(n), beating even the known-k algorithms.\n";
  return EXIT_SUCCESS;
}
