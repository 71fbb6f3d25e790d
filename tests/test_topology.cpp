// Unit tests for sim/topology.h: ring arithmetic and the embedding views
// (labels/ports) the native topology path rides on.
// The embed-level edge cases (single-node tree, path tree, Eulerian
// multigraph) and the native-vs-copy-embedding cross-checks live further
// down, next to the builders they exercise.

#include "sim/topology.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/runner.h"
#include "embed/euler_ring.h"
#include "embed/graph.h"
#include "embed/topology.h"
#include "embed/tree.h"
#include "embed/tree_deploy.h"
#include "sim/checker.h"
#include "util/rng.h"

namespace udring::sim {
namespace {

TEST(Topology, RejectsEmpty) {
  EXPECT_THROW((void)Topology::ring(0), std::invalid_argument);
  EXPECT_THROW((void)Topology::virtual_ring(0, {}), std::invalid_argument);
  EXPECT_TRUE(Topology{}.empty());
}

TEST(Topology, RingNextWrapsAround) {
  const Topology ring = Topology::ring(5);
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.next(0), 1u);
  EXPECT_EQ(ring.next(3), 4u);
  EXPECT_EQ(ring.next(4), 0u);
  EXPECT_EQ(ring.name(), "ring");
}

TEST(Topology, SingleNodeSelfLoop) {
  const Topology ring = Topology::ring(1);
  EXPECT_EQ(ring.next(0), 0u);
  EXPECT_EQ(ring.distance(0, 0), 0u);
}

TEST(Topology, DistanceIsForwardOnly) {
  const Topology ring = Topology::ring(10);
  EXPECT_EQ(ring.distance(2, 7), 5u);
  EXPECT_EQ(ring.distance(7, 2), 5u) << "(2-7) mod 10";
  EXPECT_EQ(ring.distance(4, 4), 0u);
  EXPECT_EQ(ring.distance(9, 0), 1u);
}

TEST(Topology, DistanceTriangleAroundRing) {
  const Topology ring = Topology::ring(12);
  for (NodeId a = 0; a < 12; ++a) {
    for (NodeId b = 0; b < 12; ++b) {
      if (a == b) continue;
      EXPECT_EQ(ring.distance(a, b) + ring.distance(b, a), 12u)
          << "forward there + forward back must lap the ring once";
    }
  }
}

TEST(Topology, LabelsDefaultToIdentity) {
  const Topology ring = Topology::ring(4);
  EXPECT_FALSE(ring.has_labels());
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(ring.label(v), v);
  EXPECT_EQ(ring.underlying_node_count(), 4u);
}

TEST(Topology, VirtualRingCarriesEmbeddingViews) {
  // The Euler tour of the path 0-1-2: steps 0,1,2,1 — four virtual nodes
  // over three underlying nodes.
  const Topology tour =
      Topology::virtual_ring(4, {0, 1, 2, 1}, {0, 1, 0, 0}, "euler-tree");
  EXPECT_EQ(tour.size(), 4u);
  EXPECT_TRUE(tour.has_labels());
  EXPECT_TRUE(tour.has_ports());
  EXPECT_EQ(tour.label(3), 1u);
  EXPECT_EQ(tour.port(1), 1u);
  EXPECT_EQ(tour.underlying_node_count(), 3u);
  EXPECT_EQ(tour.name(), "euler-tree");
}

TEST(Topology, VirtualRingRejectsShortViews) {
  EXPECT_THROW((void)Topology::virtual_ring(4, {0, 1}), std::invalid_argument);
  EXPECT_THROW((void)Topology::virtual_ring(4, {0, 1, 2, 1}, {0}),
               std::invalid_argument);
}

// ---- embed builders ---------------------------------------------------------

TEST(EmbedTopology, SingleNodeTreeIsTheTrivialVirtualRing) {
  const embed::TreeNetwork tree(1, {});
  const Topology topo = embed::euler_tour_topology(tree);
  EXPECT_EQ(topo.size(), 1u);
  EXPECT_EQ(topo.next(0), 0u);
  EXPECT_EQ(topo.label(0), 0u);

  // A single agent on the single-node tree deploys trivially.
  const embed::TreeDeployReport report =
      embed::deploy_on_tree(tree, {0}, core::Algorithm::KnownKFull);
  EXPECT_TRUE(report.success) << report.failure;
  EXPECT_EQ(report.virtual_ring_size, 1u);
  EXPECT_EQ(report.tree_positions, (std::vector<embed::TreeNodeId>{0}));
}

TEST(EmbedTopology, PathTreeTourMatchesEulerRing) {
  const embed::TreeNetwork path = embed::path_tree(5);
  const embed::EulerRing ring(path);
  const Topology topo = embed::euler_tour_topology(path);
  ASSERT_EQ(topo.size(), ring.size());
  for (std::size_t v = 0; v < topo.size(); ++v) {
    EXPECT_EQ(topo.label(v), ring.tree_node(v));
    // Ports point at the physical edge each virtual move crosses.
    const embed::TreeNodeId from = ring.tree_node(v);
    const embed::TreeNodeId to = ring.tree_node((v + 1) % ring.size());
    EXPECT_EQ(path.neighbors(from).at(topo.port(v)), to);
  }
  // virtual_homes must agree with the EulerRing first-visit map.
  for (embed::TreeNodeId node = 0; node < path.size(); ++node) {
    EXPECT_EQ(embed::virtual_homes(topo, {node})[0], ring.first_position(node));
  }
}

TEST(EmbedTopology, EulerianMultigraphCircuitCoversEveryEdgeOnce) {
  // Two triangles sharing node 2 (all degrees even: 2,2,4,2,2), plus a
  // parallel-edge pair between 0 and 1 — a genuine multigraph.
  const std::vector<std::pair<embed::TreeNodeId, embed::TreeNodeId>> edges = {
      {0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}, {0, 1}, {1, 0},
  };
  const Topology topo = embed::eulerian_circuit_topology(5, edges);
  EXPECT_EQ(topo.size(), edges.size()) << "one virtual step per edge";
  EXPECT_EQ(topo.underlying_node_count(), 5u);

  // Walking one lap crosses every edge exactly once (count by unordered
  // endpoint pair, respecting multiplicity).
  std::map<std::pair<embed::TreeNodeId, embed::TreeNodeId>, std::size_t> walked;
  for (std::size_t v = 0; v < topo.size(); ++v) {
    const embed::TreeNodeId a = topo.label(v);
    const embed::TreeNodeId b = topo.label(topo.next(v));
    ++walked[{std::min(a, b), std::max(a, b)}];
  }
  std::map<std::pair<embed::TreeNodeId, embed::TreeNodeId>, std::size_t> expected;
  for (const auto& [a, b] : edges) ++expected[{std::min(a, b), std::max(a, b)}];
  EXPECT_EQ(walked, expected);
}

TEST(EmbedTopology, EulerianCircuitRejectsOddDegreesAndDisconnection) {
  EXPECT_THROW(
      (void)embed::eulerian_circuit_topology(3, {{0, 1}, {1, 2}}),
      std::invalid_argument)
      << "path has odd-degree endpoints";
  EXPECT_THROW((void)embed::eulerian_circuit_topology(
                   4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}}),
               std::invalid_argument)
      << "two components";
  EXPECT_NO_THROW((void)embed::eulerian_circuit_topology(1, {}));
}

TEST(EmbedTopology, DeploymentOnEulerianMultigraphIsUniform) {
  const std::vector<std::pair<embed::TreeNodeId, embed::TreeNodeId>> edges = {
      {0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2},
  };
  core::RunSpec spec;
  spec.topology = embed::eulerian_circuit_topology(5, edges);
  spec.node_count = spec.topology.size();
  spec.homes = embed::virtual_homes(spec.topology, {0, 3});
  const core::RunReport report =
      core::run_algorithm(core::Algorithm::KnownKFull, spec);
  ASSERT_TRUE(report.success) << report.failure;
  const auto check =
      check_positions_uniform(report.final_positions, spec.topology.size());
  EXPECT_TRUE(check.ok) << check.reason;
  ASSERT_EQ(report.final_labels.size(), report.final_positions.size());
  for (std::size_t i = 0; i < report.final_positions.size(); ++i) {
    EXPECT_EQ(report.final_labels[i],
              spec.topology.label(report.final_positions[i]));
  }
}

TEST(EmbedTopology, DrawVirtualHomesAreDistinctFirstPositions) {
  Rng rng(9);
  const embed::TreeNetwork tree = embed::random_tree(12, rng);
  const Topology topo = embed::euler_tour_topology(tree);
  const std::vector<std::size_t> homes = embed::draw_virtual_homes(topo, 5, rng);
  EXPECT_EQ(homes.size(), 5u);
  std::set<std::size_t> distinct(homes.begin(), homes.end());
  EXPECT_EQ(distinct.size(), homes.size());
  for (const std::size_t v : homes) EXPECT_LT(v, topo.size());
  EXPECT_THROW((void)embed::draw_virtual_homes(topo, 13, rng),
               std::invalid_argument);
}

// ---- native path ≡ legacy copy-embedding ------------------------------------

/// What deploy_on_tree did before the native topology path: materialize the
/// Euler tour as a detached plain ring, run on it, and map every result back
/// by hand. Kept here (and only here) as the reference the native path must
/// match exactly before the copy path could be retired.
struct LegacyResult {
  bool success = false;
  std::vector<std::size_t> virtual_positions;
  std::vector<embed::TreeNodeId> tree_positions;
  std::size_t total_moves = 0;
  std::uint64_t makespan = 0;
};

LegacyResult legacy_copy_embedding(const embed::TreeNetwork& tree,
                                   const std::vector<embed::TreeNodeId>& homes,
                                   core::Algorithm algorithm) {
  const embed::EulerRing ring(tree);
  core::RunSpec spec;
  spec.node_count = ring.size();
  for (const embed::TreeNodeId home : homes) {
    spec.homes.push_back(ring.first_position(home));
  }
  const core::RunReport report = core::run_algorithm(algorithm, spec);
  LegacyResult out;
  out.success = report.success;
  out.virtual_positions = report.final_positions;
  for (const std::size_t v : report.final_positions) {
    out.tree_positions.push_back(ring.tree_node(v));
  }
  out.total_moves = report.total_moves;
  out.makespan = report.makespan;
  return out;
}

using CrossCheckParam = std::tuple<std::size_t, std::size_t, std::uint64_t>;

class NativeVsCopySweep : public ::testing::TestWithParam<CrossCheckParam> {};

TEST_P(NativeVsCopySweep, TreeWorkloadsMatchTheLegacyCopyEmbedding) {
  const auto [n, requested_k, seed] = GetParam();
  const std::size_t k = std::min(requested_k, n);  // never more agents than nodes
  Rng rng(seed);
  const embed::TreeNetwork tree = embed::random_tree(n, rng);
  std::vector<embed::TreeNodeId> homes;
  std::set<embed::TreeNodeId> used;
  while (homes.size() < k) {
    const auto node = static_cast<embed::TreeNodeId>(rng.below(n));
    if (used.insert(node).second) homes.push_back(node);
  }
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem,
        core::Algorithm::UnknownRelaxed}) {
    const LegacyResult legacy = legacy_copy_embedding(tree, homes, algorithm);
    const embed::TreeDeployReport native =
        embed::deploy_on_tree(tree, homes, algorithm);
    EXPECT_EQ(native.success, legacy.success) << core::to_string(algorithm);
    EXPECT_EQ(native.virtual_positions, legacy.virtual_positions);
    EXPECT_EQ(native.tree_positions, legacy.tree_positions);
    EXPECT_EQ(native.total_moves, legacy.total_moves)
        << core::to_string(algorithm) << ": move counts must be identical";
    EXPECT_EQ(native.makespan, legacy.makespan);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NativeVsCopySweep,
                         ::testing::Combine(::testing::Values(2, 9, 24),
                                            ::testing::Values(1, 3, 5),
                                            ::testing::Values(1, 4)));

TEST(NativeVsCopy, GraphWorkloadsMatchThroughTheSpanningTree) {
  Rng rng(11);
  const embed::GraphNetwork graph = embed::random_connected_graph(18, 9, rng);
  const embed::TreeNetwork tree = graph.spanning_tree();
  const std::vector<embed::TreeNodeId> homes = {0, 4, 9, 13};

  const LegacyResult legacy =
      legacy_copy_embedding(tree, homes, core::Algorithm::KnownKFull);

  core::RunSpec spec;
  spec.topology = embed::spanning_tree_topology(graph);
  spec.node_count = spec.topology.size();
  spec.homes = embed::virtual_homes(spec.topology, homes);
  const core::RunReport native =
      core::run_algorithm(core::Algorithm::KnownKFull, spec);

  EXPECT_EQ(native.success, legacy.success);
  EXPECT_EQ(native.final_positions, legacy.virtual_positions);
  EXPECT_EQ(native.final_labels,
            std::vector<std::size_t>(legacy.tree_positions.begin(),
                                     legacy.tree_positions.end()));
  EXPECT_EQ(native.total_moves, legacy.total_moves);
}

}  // namespace
}  // namespace udring::sim
