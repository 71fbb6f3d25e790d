// bench_ext_networks — the §5 future-work extension, measured: uniform
// deployment on trees and general networks via the Euler-tour / spanning-
// tree ring embedding.
//
// The paper's claim: "Since an embedded ring consists of 2(n−1) nodes for an
// original network with n nodes, we can show that the total moves between
// the embedded ring and the original network is asymptotically equivalent."
// We verify the cost shape (moves/k·m flat, m = 2(n−1)) across topology
// families and report the tree-level coverage improvement.

#include <set>

#include "embed/graph.h"
#include "embed/tree_deploy.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;
using namespace udring::embed;

std::vector<TreeNodeId> draw_tree_homes(std::size_t node_count, std::size_t k,
                                        Rng& rng) {
  std::vector<TreeNodeId> homes;
  std::set<TreeNodeId> used;
  while (homes.size() < k) {
    const auto node = static_cast<TreeNodeId>(rng.below(node_count));
    if (used.insert(node).second) homes.push_back(node);
  }
  return homes;
}

void print_report() {
  std::cout << "Extension (§5): uniform deployment on trees and general networks\n"
               "through the Euler-tour / spanning-tree embedding. Algorithm 1,\n"
               "5 seeds per row.\n";

  print_section(std::cout, "Topology sweep (k = 8)");
  Table table({"topology", "n", "m=2(n-1)", "moves", "moves/(k·m)",
               "worst hop before", "worst hop after", "uniform on tour"});

  struct Topology {
    std::string name;
    TreeNetwork tree;
  };
  Rng shape_rng(2718);
  std::vector<Topology> topologies;
  topologies.push_back({"path-64", path_tree(64)});
  topologies.push_back({"star-64", star_tree(64)});
  topologies.push_back({"binary-63", binary_tree(63)});
  topologies.push_back({"caterpillar-60", caterpillar_tree(20, 2)});
  topologies.push_back({"random-tree-64", random_tree(64, shape_rng)});
  topologies.push_back(
      {"random-graph-64", random_connected_graph(64, 48, shape_rng).spanning_tree()});
  topologies.push_back({"grid-8x8", grid_graph(8, 8).spanning_tree()});
  topologies.push_back({"complete-32", complete_graph(32).spanning_tree()});

  for (const Topology& topology : topologies) {
    const std::size_t k = 8;
    const std::size_t m = 2 * (topology.tree.size() - 1);
    double moves = 0, worst_before = 0, worst_after = 0;
    bool uniform = true;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed * 97 + topology.tree.size());
      const auto homes = draw_tree_homes(topology.tree.size(), k, rng);
      const auto [before, mean_before] = tree_coverage(topology.tree, homes);
      const TreeDeployReport report =
          deploy_on_tree(topology.tree, homes, core::Algorithm::KnownKFull);
      uniform = uniform && report.success;
      moves += static_cast<double>(report.total_moves) / 5.0;
      worst_before += static_cast<double>(before) / 5.0;
      worst_after += static_cast<double>(report.worst_tree_distance) / 5.0;
    }
    table.add_row({topology.name, Table::num(topology.tree.size()),
                   Table::num(m), Table::num(moves, 0),
                   Table::num(moves / static_cast<double>(8 * m), 2),
                   Table::num(worst_before, 1), Table::num(worst_after, 1),
                   check(uniform)});
  }
  std::cout << table;
  std::cout
      << "\nmoves/(k·m) sits at the same ~2.0 constant as on native rings\n"
         "(Table 1): the embedding preserves the move accounting exactly, as\n"
         "§5 claims. Coverage note: tour-uniformity guarantees patrol\n"
         "staleness ≤ ⌈m/k⌉ tour steps; hop-distance coverage improves too,\n"
         "but is topology-dependent (the star's hub dominates either way).\n";

  print_section(std::cout, "Scaling on random trees (k = n/8)");
  Table scaling({"n", "k", "m", "moves", "moves/(k·m)", "time", "time/m"});
  for (const std::size_t n : {32u, 64u, 128u, 256u}) {
    const std::size_t k = n / 8;
    Rng rng(n);
    const TreeNetwork tree = random_tree(n, rng);
    const auto homes = draw_tree_homes(n, k, rng);
    core::RunSpec base;
    base.scheduler = sim::SchedulerKind::Synchronous;
    const TreeDeployReport report =
        deploy_on_tree(tree, homes, core::Algorithm::KnownKFull, base);
    const std::size_t m = report.virtual_ring_size;
    scaling.add_row(
        {Table::num(n), Table::num(k), Table::num(m),
         Table::num(report.total_moves),
         Table::num(static_cast<double>(report.total_moves) /
                        static_cast<double>(k * m),
                    2),
         Table::num(static_cast<std::size_t>(report.makespan)),
         Table::num(static_cast<double>(report.makespan) / static_cast<double>(m),
                    2)});
  }
  std::cout << scaling
            << "O(k·m) moves and O(m) time on the embedded ring = O(kn) and\n"
               "O(n) on the tree — the ring results carry over with m = 2(n-1).\n";
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
