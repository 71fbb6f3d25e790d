// Tests for sim/footprint.h — the shared conservative {node, next(node)}
// action footprint. The mc:: sleep sets and the incremental checker's dirty
// set both consume this one definition; these tests pin its two
// load-bearing properties:
// overlaps() is a sound symmetric intersection test (including the 1-node
// self-loop where node == next), and independent_actions() implies the two
// actions commute — executing them in either order reaches the same
// configuration.

#include "sim/footprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/runner.h"

namespace udring::sim {
namespace {

TEST(ActionFootprint, OverlapsIsExactPairIntersection) {
  const ActionFootprint a{0, 1};
  EXPECT_TRUE(a.overlaps({0, 1}));   // identical
  EXPECT_TRUE(a.overlaps({1, 2}));   // shares a.next
  EXPECT_TRUE(a.overlaps({7, 0}));   // shares a.node as next
  EXPECT_FALSE(a.overlaps({2, 3}));  // disjoint
  EXPECT_FALSE(a.overlaps({5, 6}));
}

TEST(ActionFootprint, SelfLoopFootprintNeedsNoDeduplication) {
  // On a 1-node walk node == next; overlaps() must treat {v, v} as the
  // singleton {v} without callers canonicalizing first.
  const ActionFootprint loop{3, 3};
  EXPECT_TRUE(loop.overlaps({3, 3}));
  EXPECT_TRUE(loop.overlaps({2, 3}));
  EXPECT_TRUE(loop.overlaps({3, 4}));
  EXPECT_FALSE(loop.overlaps({4, 5}));
}

TEST(ActionFootprint, OverlapsIsSymmetric) {
  const std::vector<ActionFootprint> sample = {
      {0, 1}, {1, 2}, {3, 3}, {7, 0}, {4, 5}};
  for (const ActionFootprint& a : sample) {
    for (const ActionFootprint& b : sample) {
      EXPECT_EQ(a.overlaps(b), b.overlaps(a))
          << "{" << a.node << "," << a.next << "} vs {" << b.node << ","
          << b.next << "}";
    }
  }
}

core::RunSpec ring_spec(std::size_t node_count, std::vector<std::size_t> homes) {
  core::RunSpec spec;
  spec.node_count = node_count;
  spec.homes = std::move(homes);
  return spec;
}

TEST(ActionFootprint, InitialFootprintIsHomeAndSuccessor) {
  const sim::Instance instance = core::make_instance(
      core::Algorithm::KnownKFull, ring_spec(8, {0, 4, 7}));
  ExecutionState state;
  state.reset(instance);

  EXPECT_EQ(action_footprint(state, 0).node, 0u);
  EXPECT_EQ(action_footprint(state, 0).next, 1u);
  EXPECT_EQ(action_footprint(state, 1).node, 4u);
  EXPECT_EQ(action_footprint(state, 1).next, 5u);
  // The ring wraps: home 7's successor is node 0.
  EXPECT_EQ(action_footprint(state, 2).node, 7u);
  EXPECT_EQ(action_footprint(state, 2).next, 0u);

  // Far-apart agents are independent; the wrap makes agents 0 and 2
  // dependent (footprints {0,1} and {7,0} share node 0).
  EXPECT_TRUE(independent_actions(state, 0, 1));
  EXPECT_FALSE(independent_actions(state, 0, 2));
}

TEST(ActionFootprint, AdjacentAgentsAreDependent) {
  const sim::Instance instance =
      core::make_instance(core::Algorithm::KnownKFull, ring_spec(8, {0, 1}));
  ExecutionState state;
  state.reset(instance);
  // Footprints {0,1} and {1,2} share node 1: a move by agent 0 lands in the
  // link queue agent 1's action drains, so the pair must not be declared
  // independent.
  EXPECT_FALSE(independent_actions(state, 0, 1));
}

TEST(ActionFootprint, IndependentActionsCommute) {
  // The property every consumer relies on: when independent_actions says
  // yes, executing the two actions in either order reaches the same
  // configuration (config_digest is order-insensitive only through genuine
  // commutation — it hashes the full C = (S, T, M, P, Q)).
  const core::RunSpec spec = ring_spec(16, {0, 8});
  const sim::Instance instance =
      core::make_instance(core::Algorithm::KnownKFull, spec);

  ExecutionState ab;
  ab.reset(instance);
  ASSERT_EQ(ab.enabled().size(), 2u);
  ASSERT_TRUE(independent_actions(ab, 0, 1));
  ASSERT_TRUE(ab.step_agent(0));
  ASSERT_TRUE(ab.step_agent(1));

  ExecutionState ba;
  ba.reset(instance);
  ASSERT_TRUE(ba.step_agent(1));
  ASSERT_TRUE(ba.step_agent(0));

  EXPECT_EQ(ab.config_digest(), ba.config_digest());

  // And the footprint taken before the action bounds the nodes the action
  // actually touched (the post-hoc narrowing the incremental checker uses).
  ExecutionState probe;
  probe.reset(instance);
  const ActionFootprint before = action_footprint(probe, 0);
  ASSERT_TRUE(probe.step_agent(0));
  for (const NodeId touched : probe.last_action_nodes()) {
    EXPECT_TRUE(touched == before.node || touched == before.next)
        << "action touched node " << touched << " outside footprint {"
        << before.node << "," << before.next << "}";
  }
}

}  // namespace
}  // namespace udring::sim
