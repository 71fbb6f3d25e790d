// Executable Theorem 5 (§4.1): with no knowledge of k or n, no algorithm
// solves uniform deployment with termination detection.
//
// We realize the proof's construction (Fig 7): take ring R where a
// terminating candidate algorithm succeeds, build R' with 2qn + 2n nodes
// whose first (q+1)·n nodes repeat R's configuration, and verify
//  (a) Lemma 1: for t ≤ qn synchronous rounds, the local configurations of
//      the repeated region match R's round for round;
//  (b) the candidate (PrematureHaltAgent) halts in R' exactly as in R — at
//      spacing n/k — which violates uniform deployment there (spacing 2n/k
//      is required);
//  (c) the relaxed Algorithm 6, which gives up termination detection,
//      handles the same R' correctly.

#include <gtest/gtest.h>

#include <cstdint>

#include "config/generators.h"
#include "core/premature_halt.h"
#include "core/runner.h"
#include "core/unknown_relaxed.h"
#include "sim/checker.h"
#include "support/lockstep.h"

namespace udring::core {
namespace {

using test::local_configs;
using test::lockstep_round;

// Base ring R: aperiodic with no misleading internal repetition, so the
// strawman estimates (n, k) exactly. Homes {0,1,5} on 12 nodes: distance
// sequence (1,4,7).
constexpr std::size_t kBaseNodes = 12;
const std::vector<std::size_t> kBaseHomes = {0, 1, 5};

sim::ProgramFactory premature_factory() {
  return [](sim::AgentId) { return std::make_unique<PrematureHaltAgent>(); };
}

sim::ProgramFactory relaxed_factory() {
  return [](sim::AgentId) { return std::make_unique<UnknownRelaxedAgent>(); };
}

TEST(Impossibility, StrawmanSucceedsOnTheBaseRing) {
  sim::Simulator simulator(kBaseNodes, kBaseHomes, premature_factory());
  sim::SynchronousScheduler scheduler;
  const auto result = simulator.run(scheduler);
  ASSERT_TRUE(result.quiescent());
  const auto check = sim::UniformDeploymentOracle(true).check_goal(simulator);
  EXPECT_TRUE(check.ok) << check.reason
                        << "\n(the strawman must look correct on R for the "
                           "construction to bite)";
}

TEST(Impossibility, Lemma1LocalConfigurationsMatchForQnRounds) {
  // Measure T(E_R): rounds to quiescence in R.
  sim::Simulator reference(kBaseNodes, kBaseHomes, premature_factory());
  sim::SynchronousScheduler ref_scheduler;
  (void)reference.run(ref_scheduler);
  const std::uint64_t total_rounds = ref_scheduler.rounds() + 1;
  const std::size_t q =
      (static_cast<std::size_t>(total_rounds) + kBaseNodes - 1) / kBaseNodes;

  const auto instance = gen::impossibility_ring(kBaseHomes, kBaseNodes, q);
  ASSERT_EQ(instance.node_count, 2 * q * kBaseNodes + 2 * kBaseNodes);

  sim::Simulator small(kBaseNodes, kBaseHomes, premature_factory());
  sim::Simulator large(instance.node_count, instance.homes, premature_factory());

  // Lemma 1: after round t ≤ qn, every node v'_j with t ≤ j < qn + n has the
  // local configuration of v_{j mod n}.
  const std::size_t qn = q * kBaseNodes;
  for (std::uint64_t t = 1; t <= qn; ++t) {
    const bool small_advanced = lockstep_round(small);
    const bool large_advanced = lockstep_round(large);
    if (!small_advanced) break;  // R quiescent; the claim is established
    ASSERT_TRUE(large_advanced);
    const auto small_locals = local_configs(small.snapshot());
    const auto large_locals = local_configs(large.snapshot());
    for (std::size_t j = static_cast<std::size_t>(t); j < qn + kBaseNodes; ++j) {
      ASSERT_EQ(large_locals[j], small_locals[j % kBaseNodes])
          << "local configurations differ at round " << t << ", node " << j;
    }
  }
}

TEST(Impossibility, StrawmanTerminatesPrematurelyOnTheLargeRing) {
  sim::Simulator reference(kBaseNodes, kBaseHomes, premature_factory());
  sim::SynchronousScheduler ref_scheduler;
  (void)reference.run(ref_scheduler);
  const std::size_t q =
      (static_cast<std::size_t>(ref_scheduler.rounds()) + kBaseNodes) / kBaseNodes;

  const auto instance = gen::impossibility_ring(kBaseHomes, kBaseNodes, q);
  sim::Simulator large(instance.node_count, instance.homes, premature_factory());
  sim::SynchronousScheduler scheduler;
  const auto result = large.run(scheduler);
  ASSERT_TRUE(result.quiescent());

  // Every agent halted — it *believes* it detected termination...
  EXPECT_TRUE(large.all_halted());
  // ...but the deployment is wrong: agents of the repeated region halted at
  // spacing n/k = 4 where R' requires 2n/k = 8.
  const auto check = sim::UniformDeploymentOracle(true).check_goal(large);
  EXPECT_FALSE(check.ok)
      << "Theorem 5: a terminating no-knowledge algorithm must fail on R'";

  // The corresponding agents really did repeat R's behaviour: same move
  // counts as their base-ring counterparts.
  for (sim::AgentId id = 0; id < kBaseHomes.size(); ++id) {
    EXPECT_EQ(large.metrics().agent(id).moves, reference.metrics().agent(id).moves)
        << "agent " << id << " departed from its base-ring twin";
  }
}

TEST(Impossibility, RelaxedAlgorithmHandlesTheSameLargeRing) {
  // Dropping termination detection (Algorithm 6) makes the very same
  // instance solvable — the paper's Result 3 vs Result 4 boundary.
  sim::Simulator reference(kBaseNodes, kBaseHomes, premature_factory());
  sim::SynchronousScheduler ref_scheduler;
  (void)reference.run(ref_scheduler);
  const std::size_t q =
      (static_cast<std::size_t>(ref_scheduler.rounds()) + kBaseNodes) / kBaseNodes;

  const auto instance = gen::impossibility_ring(kBaseHomes, kBaseNodes, q);
  sim::SimOptions options;
  options.max_actions = 128 * instance.node_count * instance.homes.size();
  sim::Simulator large(instance.node_count, instance.homes, relaxed_factory(),
                       options);
  sim::SynchronousScheduler scheduler;
  const auto result = large.run(scheduler);
  ASSERT_TRUE(result.quiescent());
  const auto check = sim::UniformDeploymentOracle(false).check_goal(large);
  EXPECT_TRUE(check.ok) << check.reason;
}

TEST(Impossibility, ConstructionScalesWithQ) {
  // The generator itself: (q+1) copies of the homes, then an empty half.
  const auto instance = gen::impossibility_ring({0, 2}, 5, 3);
  EXPECT_EQ(instance.node_count, 2u * 3u * 5u + 2u * 5u);
  EXPECT_EQ(instance.homes,
            (std::vector<std::size_t>{0, 2, 5, 7, 10, 12, 15, 17}));
}

}  // namespace
}  // namespace udring::core
