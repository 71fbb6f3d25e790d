// Snapshot fidelity: sim::ExecutionState is a plain value — agent programs
// carry their protothread resume points as members — so a copy taken
// mid-run must continue exactly like the original. The model checker copies
// states to hand BFS frontier nodes to its shards (src/mc). Checked here for
// every in-tree algorithm on ring, Euler-tree and Eulerian-graph instances
// and under a fault plan with a crash and a rewiring:
//  - a copy (constructed, or assigned over a slot last bound to another
//    algorithm with other n and k) driven by the same choices as the
//    original ends with the same config_digest(), event-log digest, metrics
//    and verdict;
//  - stepping a copy leaves the original untouched (agent contexts bind to
//    the state that executes the action, never to the copy's source);
//  - restoring a snapshot of the same instance allocates nothing;
//  - a halted program stays halted in its copies.
//
// Undo fidelity: the model checker backtracks over each edge by
// save_step() / step_agent() / undo(). For every algorithm, on the same
// instance kinds, under FIFO, under the non-FIFO fault at min phase 0 and
// 1, and under a crash and a rewiring:
//  - at every action of a run, each enabled agent in turn is saved, stepped
//    and undone, and each pending rewiring candidate is saved, applied and
//    undone; the state must then equal a copy taken before the saves in
//    every part ExecutionState::difference() compares (the enabled set's
//    order and the event log included), and keep its removal floor;
//  - the undone state and that copy, driven by the same choices, end with
//    the same config and event-log digests, metrics and verdict;
//  - a second walk after a warm-up walk allocates nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/problem.h"
#include "core/runner.h"
#include "embed/topology.h"
#include "exp/campaign.h"
#include "explore/trace.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "util/rng.h"

// Defines the global counting operator new for this test binary.
#include "util/counting_allocator.h"

namespace udring::sim {
namespace {

constexpr std::size_t kToTheEnd = std::numeric_limits<std::size_t>::max();

/// Executes up to `steps` atomic actions, each drawn from `rng` as an index
/// into the sorted enabled set; a pending rewiring draws its stride the same
/// way (the model checker's choice encoding). Stops at quiescence or the
/// action limit.
void drive(ExecutionState& state, Rng& rng, std::size_t steps) {
  std::vector<AgentId> sorted;
  for (std::size_t taken = 0; taken < steps && !state.quiescent() &&
                              state.actions_executed() < state.max_actions();) {
    if (state.pending_rewire()) {
      state.apply_rewire(rng.index(state.rewire_candidate_count()));
      continue;
    }
    sorted.assign(state.enabled().begin(), state.enabled().end());
    std::sort(sorted.begin(), sorted.end());
    ASSERT_TRUE(state.step_agent(sorted[rng.index(sorted.size())]));
    ++taken;
  }
}

void expect_same_run(const ExecutionState& a, const ExecutionState& b,
                     const GoalOracle& oracle, const std::string& what) {
  EXPECT_EQ(a.config_digest(), b.config_digest()) << what;
  EXPECT_EQ(a.log().digest(), b.log().digest()) << what;
  EXPECT_EQ(a.log().events().size(), b.log().events().size()) << what;
  EXPECT_EQ(a.actions_executed(), b.actions_executed()) << what;
  EXPECT_EQ(a.quiescent(), b.quiescent()) << what;
  EXPECT_EQ(a.metrics().total_moves(), b.metrics().total_moves()) << what;
  EXPECT_EQ(a.metrics().total_actions(), b.metrics().total_actions()) << what;
  EXPECT_EQ(a.metrics().makespan(), b.metrics().makespan()) << what;
  EXPECT_EQ(a.metrics().max_memory_bits(), b.metrics().max_memory_bits())
      << what;
  EXPECT_EQ(a.metrics().moves_by_phase(), b.metrics().moves_by_phase())
      << what;
  EXPECT_EQ(a.staying_nodes(), b.staying_nodes()) << what;
  const CheckResult va = oracle.check_goal(a);
  const CheckResult vb = oracle.check_goal(b);
  EXPECT_EQ(va.ok, vb.ok) << what;
  EXPECT_EQ(va.reason, vb.reason) << what;
}

/// The fidelity check for one instance (see the file comment).
void check_fidelity(core::Algorithm algorithm, core::RunSpec spec,
                    std::uint64_t seed, const std::string& what) {
  spec.sim_options.record_events = true;
  const Instance instance = core::make_instance(algorithm, spec);
  const std::unique_ptr<GoalOracle> oracle = core::make_goal_oracle(algorithm);

  // A slot whose arena, programs and event log were last shaped by a
  // different algorithm on a different n and k.
  core::RunSpec foreign_spec;
  foreign_spec.node_count = 21;
  foreign_spec.homes = {0, 2, 5, 9, 14};
  foreign_spec.sim_options.record_events = true;
  const core::Algorithm foreign_algorithm =
      algorithm == core::Algorithm::UnknownRelaxed
          ? core::Algorithm::KnownKLogMem
          : core::Algorithm::UnknownRelaxed;
  const Instance foreign = core::make_instance(foreign_algorithm, foreign_spec);
  ExecutionState slot;
  slot.reset(foreign);
  Rng foreign_rng(seed ^ 0xf0f0);
  drive(slot, foreign_rng, 40);

  ExecutionState original;
  original.reset(instance);
  Rng rng(seed);
  drive(original, rng, 4 + rng.index(20));

  const ExecutionState copy = original;  // copy construction
  slot = original;                       // copy assignment over a foreign slot
  EXPECT_EQ(copy.config_digest(), original.config_digest()) << what;
  EXPECT_EQ(slot.config_digest(), original.config_digest()) << what;
  EXPECT_EQ(slot.log().digest(), original.log().digest()) << what;

  // Stepping a copy must leave its source untouched.
  const std::uint64_t digest = original.config_digest();
  const std::uint64_t log_digest = original.log().digest();
  {
    ExecutionState probe = original;
    Rng probe_rng(seed + 1);
    drive(probe, probe_rng, 3);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  EXPECT_EQ(original.config_digest(), digest) << what;
  EXPECT_EQ(original.log().digest(), log_digest) << what;

  // The same choices from here on: all three runs end identically.
  ExecutionState mutable_copy = copy;
  Rng rng_copy = rng;
  Rng rng_slot = rng;
  drive(original, rng, kToTheEnd);
  drive(mutable_copy, rng_copy, kToTheEnd);
  drive(slot, rng_slot, kToTheEnd);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  expect_same_run(original, mutable_copy, *oracle, what + " (copy)");
  expect_same_run(original, slot, *oracle, what + " (foreign slot)");
}

class SnapshotFidelity : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(SnapshotFidelity, CopyOnRingContinuesLikeTheOriginal) {
  Rng rng(101);
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    core::RunSpec spec;
    spec.node_count = 12;
    spec.homes =
        exp::draw_homes(exp::ConfigFamily::RandomAny, 12, 3 + trial % 2, 1, rng);
    check_fidelity(GetParam(), spec, 1000 + trial,
                   "ring trial " + std::to_string(trial));
  }
}

TEST_P(SnapshotFidelity, CopyOnEulerTreeAndEulerianGraphContinues) {
  Rng rng(202);
  for (const embed::RandomNetworkKind kind :
       {embed::RandomNetworkKind::Tree, embed::RandomNetworkKind::Graph}) {
    core::RunSpec spec;
    spec.topology = embed::random_network_topology(kind, 6, rng);
    spec.node_count = spec.topology.size();
    spec.homes = embed::draw_virtual_homes(spec.topology, 3, rng);
    check_fidelity(GetParam(), spec, 2000,
                   kind == embed::RandomNetworkKind::Tree ? "euler tree"
                                                          : "eulerian graph");
  }
}

TEST_P(SnapshotFidelity, CopyUnderCrashAndRewireContinues) {
  // A crash and a rewiring both land after the copy point of some trials and
  // before it in others; either way the live fault state travels with the
  // copy.
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    core::RunSpec spec;
    spec.node_count = 12;
    spec.homes = {0, 1, 5, 8};
    spec.sim_options.faults.crashes = {CrashFault{2, 6 + 4 * trial}};
    spec.sim_options.faults.rewire_at = {3 + 5 * trial};
    check_fidelity(GetParam(), spec, 3000 + trial,
                   "faults trial " + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(EveryAlgorithm, SnapshotFidelity,
                         ::testing::ValuesIn(explore::all_algorithms()),
                         [](const auto& info) {
                           std::string name(core::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Snapshot, RestoringASnapshotOfTheSameInstanceAllocatesNothing) {
#if !UDRING_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  core::RunSpec spec;
  spec.node_count = 24;
  spec.homes = {0, 5, 11, 17};
  const Instance instance = core::make_instance(core::Algorithm::KnownKFull, spec);
  ExecutionState working;
  working.reset(instance);
  Rng rng(7);
  drive(working, rng, 30);
  ExecutionState snapshot = working;  // a snapshot taken mid-walk
  drive(working, rng, 60);            // the walk descends further

  const std::size_t before = udring::allocation_count();
  working = snapshot;  // restore: programs copy in place, arenas reused
  snapshot = working;  // and re-save
  const std::size_t allocs = udring::allocation_count() - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(working.config_digest(), snapshot.config_digest());
#endif
}

// ---- undo --------------------------------------------------------------------

/// Probes every action of one run of `instance` (see the file comment) up
/// to action `drive_at`, where it drives the undone state and its copy to
/// the end by the same choices and compares the two runs.
void probe_undo(const Instance& instance, const GoalOracle& oracle,
                std::uint64_t seed, std::size_t drive_at,
                const std::string& what) {
  ExecutionState state;
  state.reset(instance);
  ExecutionState copy;
  ExecutionState::UndoRecord record;
  Rng rng(seed);
  std::vector<AgentId> enabled;
  while (!state.quiescent() && state.actions_executed() < state.max_actions()) {
    copy = state;
    const std::size_t floor = state.enabled_removal_floor();
    const std::string at =
        what + " at action " + std::to_string(state.actions_executed());
    if (state.pending_rewire()) {
      for (std::size_t c = 0; c < state.rewire_candidate_count(); ++c) {
        state.save_rewire(record);
        state.apply_rewire(c);
        state.undo(record);
        ASSERT_EQ(state.difference(copy), "") << at << ", rewire " << c;
        ASSERT_EQ(state.enabled_removal_floor(), floor) << at;
      }
      state.apply_rewire(rng.index(state.rewire_candidate_count()));
      continue;
    }
    enabled = state.enabled();
    for (const AgentId id : enabled) {
      state.save_step(id, record);
      ASSERT_TRUE(state.step_agent(id));
      state.undo(record);
      ASSERT_EQ(state.difference(copy), "") << at << ", agent " << id;
      ASSERT_EQ(state.enabled_removal_floor(), floor) << at << ", agent " << id;
    }
    if (state.actions_executed() == drive_at) {
      Rng rng_copy = rng;
      drive(state, rng, kToTheEnd);
      drive(copy, rng_copy, kToTheEnd);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      expect_same_run(state, copy, oracle, at + " (undone, then driven)");
      return;
    }
    ASSERT_TRUE(state.step_agent(enabled[rng.index(enabled.size())]));
  }
}

/// The undo check for one instance: a run probed at every action to its
/// end, and one driven to the end from an undone state at a drawn action.
void check_undo(core::Algorithm algorithm, core::RunSpec spec,
                std::uint64_t seed, const std::string& what) {
  spec.sim_options.record_events = true;
  const Instance instance = core::make_instance(algorithm, spec);
  const std::unique_ptr<GoalOracle> oracle = core::make_goal_oracle(algorithm);
  probe_undo(instance, *oracle, seed, kToTheEnd, what);
  if (::testing::Test::HasFatalFailure()) return;
  Rng rng(seed);
  probe_undo(instance, *oracle, seed + 1, rng.index(24), what);
}

class UndoFidelity : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(UndoFidelity, UndoOnRingRestoresTheStateUnderFifoAndNonFifo) {
  Rng rng(404);
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    core::RunSpec spec;
    spec.node_count = 12;
    spec.homes =
        exp::draw_homes(exp::ConfigFamily::RandomAny, 12, 3 + trial % 2, 1, rng);
    // Trials 0-1 run FIFO, 2-3 non-FIFO from phase 0, 4-5 from phase 1.
    std::string mode = "fifo";
    if (trial >= 2) {
      spec.sim_options.faults.non_fifo = true;
      spec.sim_options.faults.non_fifo_min_phase = trial >= 4 ? 1 : 0;
      mode = "non-fifo from phase " +
             std::to_string(spec.sim_options.faults.non_fifo_min_phase);
    }
    check_undo(GetParam(), spec, 4000 + trial,
               "ring trial " + std::to_string(trial) + " (" + mode + ")");
  }
}

TEST_P(UndoFidelity, UndoOnEulerTreeAndEulerianGraphRestoresTheState) {
  Rng rng(505);
  for (const embed::RandomNetworkKind kind :
       {embed::RandomNetworkKind::Tree, embed::RandomNetworkKind::Graph}) {
    core::RunSpec spec;
    spec.topology = embed::random_network_topology(kind, 6, rng);
    spec.node_count = spec.topology.size();
    spec.homes = embed::draw_virtual_homes(spec.topology, 3, rng);
    check_undo(GetParam(), spec, 5000,
               kind == embed::RandomNetworkKind::Tree ? "euler tree"
                                                      : "eulerian graph");
  }
}

TEST_P(UndoFidelity, UndoUnderCrashAndRewireRestoresTheState) {
  // The crash fires during some probed action of every trial, so its undo
  // must bring the crashed agent back, wherever it is.
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    core::RunSpec spec;
    spec.node_count = 12;
    spec.homes = {0, 1, 5, 8};
    spec.sim_options.faults.crashes = {CrashFault{2, 6 + 4 * trial}};
    spec.sim_options.faults.rewire_at = {3 + 5 * trial};
    check_undo(GetParam(), spec, 6000 + trial,
               "faults trial " + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(EveryAlgorithm, UndoFidelity,
                         ::testing::ValuesIn(explore::all_algorithms()),
                         [](const auto& info) {
                           std::string name(core::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Undo, ASecondWalkAllocatesNothing) {
#if !UDRING_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // Counts what save_step() and undo() allocate; the actions themselves may
  // allocate (an algorithm's temporaries, such as the rotation search's
  // table). Known-k-logmem's broadcasts fill its receivers' mailboxes.
  // Unknown-relaxed is left out: its estimate messages carry a vector, so
  // saving and restoring a mailbox that holds one copies it.
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem}) {
    core::RunSpec spec;
    spec.node_count = 24;
    spec.homes = {0, 5, 11, 17};
    const Instance instance = core::make_instance(algorithm, spec);
    ExecutionState initial;
    initial.reset(instance);
    ExecutionState state;
    ExecutionState::UndoRecord record;
    std::vector<AgentId> enabled;
    std::size_t allocs = 0;
    const auto walk = [&] {
      state = initial;
      Rng rng(7);
      while (!state.quiescent()) {
        enabled.assign(state.enabled().begin(), state.enabled().end());
        for (const AgentId id : enabled) {
          std::size_t before = udring::allocation_count();
          state.save_step(id, record);
          allocs += udring::allocation_count() - before;
          (void)state.step_agent(id);
          before = udring::allocation_count();
          state.undo(record);
          allocs += udring::allocation_count() - before;
        }
        (void)state.step_agent(enabled[rng.index(enabled.size())]);
      }
    };
    walk();  // warms the state's arena and the record
    allocs = 0;
    walk();
    EXPECT_EQ(allocs, 0u) << core::to_string(algorithm);
    EXPECT_TRUE(state.all_halted()) << core::to_string(algorithm);
  }
#endif
}

TEST(Snapshot, HaltedProgramStaysHaltedInItsCopies) {
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 3, 5};
  const std::unique_ptr<Simulator> sim =
      core::make_simulator(core::Algorithm::KnownKFull, spec);
  RoundRobinScheduler scheduler;
  ASSERT_TRUE(sim->run(scheduler).quiescent());
  ASSERT_TRUE(sim->all_halted());

  const std::unique_ptr<AgentProgram> program = sim->program(0).clone();
  ASSERT_TRUE(program->halted());
  const std::vector<Message> inbox;
  AgentContext ctx(*sim, 0, inbox);
  EXPECT_THROW((void)program->resume(ctx), std::logic_error);

  // A state copy carries the halted programs too: nothing is enabled.
  const ExecutionState copy = *sim;
  EXPECT_TRUE(copy.all_halted());
  EXPECT_TRUE(copy.quiescent());
  EXPECT_TRUE(copy.program(0).halted());
}

}  // namespace
}  // namespace udring::sim
