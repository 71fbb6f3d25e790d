// explorer — the everything-knob example: run any algorithm on any
// configuration family under any scheduler, with optional step trace and
// before/after rendering. Handy for poking at the library and for
// reproducing any single experiment cell by hand.
//
//   ./explorer --algo=unknown-relaxed --config=fig9 --trace
//   ./explorer --algo=known-k-logmem --n=30 --k=6 --scheduler=priority
//   ./explorer --algo=known-k-full --config=periodic --n=24 --k=8 --l=4
//   ./explorer --topology=tree --n=20 --k=5      # native Euler-tour ring
//   ./explorer --topology=graph --n=16 --k=4     # spanning-tree embedding

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "config/generators.h"
#include "core/runner.h"
#include "embed/topology.h"
#include "sim/checker.h"
#include "sim/export.h"
#include "util/cli.h"
#include "util/table.h"
#include "viz/ascii_ring.h"

namespace {

using namespace udring;

core::Algorithm parse_algorithm(const std::string& name) {
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::KnownNFull,
        core::Algorithm::KnownKLogMem, core::Algorithm::KnownKLogMemStrict,
        core::Algorithm::UnknownRelaxed, core::Algorithm::Rendezvous}) {
    if (name == core::to_string(algorithm)) return algorithm;
  }
  throw std::invalid_argument("unknown algorithm: " + name);
}

sim::SchedulerKind parse_scheduler(const std::string& name) {
  for (const auto kind : sim::all_scheduler_kinds()) {
    if (name == sim::to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown scheduler: " + name);
}

struct Config {
  std::size_t n;
  std::vector<std::size_t> homes;
};

Config make_config(const std::string& family, std::size_t n, std::size_t k,
                   std::size_t l, Rng& rng) {
  if (family == "random") return {n, gen::random_homes(n, k, rng)};
  if (family == "packed") return {n, gen::packed_quarter_homes(n, k)};
  if (family == "periodic") return {n, gen::periodic_homes(n, k, l, rng)};
  if (family == "uniform") return {n, gen::uniform_homes(n, k)};
  if (family == "fig1a") return {gen::kFig1aNodes, gen::fig1a_homes()};
  if (family == "fig1b") return {gen::kFig1bNodes, gen::fig1b_homes()};
  if (family == "fig5") return {gen::kFig5Nodes, gen::fig5_homes()};
  if (family == "fig9") return {gen::kFig9Nodes, gen::fig9_homes()};
  if (family == "fig11") return {gen::kFig11Nodes, gen::fig11_homes()};
  if (family == "stress") return {gen::kLogmemStressNodes, gen::logmem_stress_homes()};
  throw std::invalid_argument("unknown config family: " + family);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string algo_name =
      cli.get("algo",
              "algorithm: known-k-full|known-n-full|known-k-logmem|"
              "known-k-logmem-strict|unknown-relaxed|rendezvous",
              "known-k-full")
          .value();
  const std::string config_name =
      cli.get("config",
              "configuration: random|packed|periodic|uniform|fig1a|fig1b|fig5|"
              "fig9|fig11|stress",
              "random")
          .value();
  const std::string scheduler_name =
      cli.get("scheduler", "round-robin|random|synchronous|priority|burst",
              "round-robin")
          .value();
  const std::string topology_name =
      cli.get("topology",
              "ring|tree|graph — tree/graph run natively on the Euler-tour "
              "virtual ring of a random network of n nodes (random config "
              "family only)",
              "ring")
          .value_or("ring");
  const std::size_t n = cli.get_size("n", 24, "ring size (generator families)");
  const std::size_t k = cli.get_size("k", 6, "agents (generator families)");
  const std::size_t l = cli.get_size("l", 2, "symmetry degree (periodic family)");
  const std::uint64_t seed = cli.get_u64("seed", 1, "rng seed");
  const bool trace = cli.get_flag("trace", "print every atomic action");
  const bool json = cli.get_flag("json", "emit the final state as JSON and exit");
  if (cli.wants_help()) {
    cli.print_help("udring explorer: any algorithm × configuration × scheduler");
    return EXIT_SUCCESS;
  }
  try {
    cli.reject_bad_flags();  // a misspelt or repeated flag is a usage error
  } catch (const std::invalid_argument& error) {
    std::cerr << argv[0] << ": " << error.what() << '\n';
    return 2;
  }

  Rng rng(seed);
  const core::Algorithm algorithm = parse_algorithm(algo_name);

  core::RunSpec spec;
  if (topology_name == "ring") {
    const Config config = make_config(config_name, n, k, l, rng);
    spec.node_count = config.n;
    spec.homes = config.homes;
  } else {
    // Native topology path: draw a network, embed it, and place k agents at
    // the first tour positions of k distinct underlying nodes.
    if (topology_name == "tree") {
      spec.topology = embed::random_network_topology(
          embed::RandomNetworkKind::Tree, n, rng);
    } else if (topology_name == "graph") {
      spec.topology = embed::random_network_topology(
          embed::RandomNetworkKind::Graph, n, rng);
    } else {
      throw std::invalid_argument("unknown topology: " + topology_name);
    }
    spec.node_count = spec.topology.size();
    spec.homes =
        embed::draw_virtual_homes(spec.topology, std::min(k, n), rng);
  }
  spec.scheduler = parse_scheduler(scheduler_name);
  spec.seed = seed;
  spec.sim_options.record_events = trace;

  if (json) {
    auto simulator = core::make_simulator(algorithm, spec);
    auto scheduler =
        sim::make_scheduler(spec.scheduler, seed, spec.homes.size());
    (void)simulator->run(*scheduler);
    sim::write_json(std::cout, *simulator);
    std::cout << "\n";
    return core::evaluate_goal(algorithm, *simulator).ok ? EXIT_SUCCESS
                                                         : EXIT_FAILURE;
  }

  std::cout << "explorer: " << core::to_string(algorithm) << " on "
            << (topology_name == "ring" ? config_name
                                        : topology_name + " (Euler tour)")
            << " (n=" << spec.node_count << ", k=" << spec.homes.size()
            << ", l=" << core::config_symmetry_degree(spec.homes, spec.node_count)
            << ") under " << scheduler_name << ", seed " << seed << "\n\n";

  auto simulator = core::make_simulator(algorithm, spec);
  std::cout << "Initial configuration:\n" << viz::render(*simulator) << "\n";

  auto scheduler =
      sim::make_scheduler(spec.scheduler, seed, spec.homes.size());
  const auto result = simulator->run(*scheduler);

  if (trace) {
    std::cout << "Trace (" << simulator->log().events().size() << " events):\n";
    for (const auto& event : simulator->log().events()) {
      std::cout << "  " << event << "\n";
    }
    std::cout << "\n";
  }

  std::cout << "Final configuration:\n"
            << viz::render(*simulator) << "\n"
            << viz::gap_summary(*simulator) << "\n\n";

  const auto goal = core::evaluate_goal(algorithm, *simulator);
  Table table({"metric", "value"});
  table.add_row({"outcome", result.quiescent() ? "quiescent" : "ACTION LIMIT"});
  table.add_row({"goal", goal.ok ? "achieved" : "FAILED: " + goal.reason});
  table.add_row({"atomic actions", Table::num(result.actions)});
  table.add_row({"total moves", Table::num(simulator->metrics().total_moves())});
  table.add_row({"ideal time", Table::num(static_cast<std::size_t>(
                                    simulator->metrics().makespan()))});
  table.add_row(
      {"peak memory bits", Table::num(simulator->metrics().max_memory_bits())});
  std::cout << table;
  return goal.ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
