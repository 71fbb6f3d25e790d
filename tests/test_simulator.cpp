// Tests for sim/simulator.h — the execution model itself. These pin down the
// §2.1 semantics the algorithms' correctness proofs lean on: atomic actions,
// FIFO links (no overtaking), the initial-buffer/home-first rule, message
// delivery to staying agents only, Definition-1/2 terminal states, causal
// ideal-time stamps, and deterministic replay.

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "sim/checker.h"
#include "sim/scheduler.h"
#include "support/test_agents.h"

namespace udring::sim {
namespace {

using test::CollectorAgent;
using test::EndlessWalkerAgent;
using test::MessengerAgent;
using test::ProberAgent;
using test::SitterAgent;
using test::SuspenderAgent;
using test::ThrowerAgent;
using test::WalkerAgent;

TEST(SimulatorConstruction, ValidatesConfiguration) {
  const auto factory = [](AgentId) { return std::make_unique<SitterAgent>(0); };
  EXPECT_THROW(Simulator(5, {}, factory), std::invalid_argument);
  EXPECT_THROW(Simulator(5, {0, 0}, factory), std::invalid_argument);
  EXPECT_THROW(Simulator(5, {0, 5}, factory), std::invalid_argument);
  EXPECT_THROW(Simulator(2, {0, 1, 0}, factory), std::invalid_argument);
  EXPECT_NO_THROW(Simulator(5, {0, 2, 4}, factory));
}

TEST(SimulatorConstruction, AgentsStartInTransitToTheirHomes) {
  Simulator sim(6, {1, 4}, [](AgentId) { return std::make_unique<SitterAgent>(1); });
  EXPECT_EQ(sim.status(0), AgentStatus::InTransit);
  EXPECT_EQ(sim.status(1), AgentStatus::InTransit);
  EXPECT_EQ(sim.agent_node(0), 1u);
  EXPECT_EQ(sim.agent_node(1), 4u);
  EXPECT_EQ(sim.queue_length(1), 1u);
  EXPECT_EQ(sim.queue_length(4), 1u);
  EXPECT_EQ(sim.enabled().size(), 2u) << "every initial agent is a queue head";
}

TEST(SimulatorRun, WalkerMovesExactlyItsSteps) {
  Simulator sim(8, {3}, [](AgentId) { return std::make_unique<WalkerAgent>(5); });
  RoundRobinScheduler scheduler;
  const RunResult result = sim.run(scheduler);
  EXPECT_TRUE(result.quiescent());
  EXPECT_TRUE(sim.all_halted());
  EXPECT_EQ(sim.metrics().agent(0).moves, 5u);
  EXPECT_EQ(sim.agent_node(0), 0u) << "3 + 5 mod 8";
  EXPECT_EQ(sim.staying_nodes(), (std::vector<NodeId>{0}));
}

TEST(SimulatorRun, CausalTimeEqualsMovesPlusArrival) {
  // One continuously moving agent: ideal time = initial arrival + one per
  // move (§2.2: "the ideal time complexity is equivalent to the number of
  // moves for the agent").
  Simulator sim(10, {0}, [](AgentId) { return std::make_unique<WalkerAgent>(7); });
  RoundRobinScheduler scheduler;
  (void)sim.run(scheduler);
  EXPECT_EQ(sim.metrics().makespan(), 8u);
}

TEST(SimulatorRun, ParallelWalkersShareTheClock) {
  // k walkers moving in lockstep: makespan must not grow with k.
  Simulator sim(12, {0, 4, 8},
                [](AgentId) { return std::make_unique<WalkerAgent>(6); });
  SynchronousScheduler scheduler;
  (void)sim.run(scheduler);
  EXPECT_EQ(sim.metrics().makespan(), 7u);
  EXPECT_EQ(sim.metrics().total_moves(), 18u);
}

TEST(SimulatorRun, ActionLimitStopsLivelocks) {
  SimOptions options;
  options.max_actions = 50;
  Simulator sim(4, {0}, [](AgentId) { return std::make_unique<EndlessWalkerAgent>(); },
                options);
  RoundRobinScheduler scheduler;
  const RunResult result = sim.run(scheduler);
  EXPECT_EQ(result.outcome, RunResult::Outcome::ActionLimit);
  EXPECT_EQ(result.actions, 50u);
}

TEST(HomeFirstRule, VisitorQueuesBehindTheHomeAgent) {
  // Agent 1 walks through agent 0's home. Even if the scheduler refuses to
  // run agent 0 (priority: agent 1 first), the FIFO initial buffer forces
  // agent 0's first action (at its home) before agent 1 can arrive there.
  SimOptions options;
  options.record_events = true;
  Simulator sim(
      6, {3, 1},
      [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<WalkerAgent>(0, /*drop_token=*/true);
        return std::make_unique<WalkerAgent>(4);
      },
      options);
  PriorityScheduler scheduler({1, 0});  // starve agent 0
  (void)sim.run(scheduler);

  const auto arrivals = sim.log().of_kind(EventKind::Arrive);
  const auto at_node3 = [&] {
    std::vector<Event> out;
    for (const Event& e : arrivals) {
      if (e.node == 3) out.push_back(e);
    }
    return out;
  }();
  ASSERT_EQ(at_node3.size(), 2u);
  EXPECT_EQ(at_node3[0].agent, 0u) << "home agent must act at its home first";
  EXPECT_EQ(at_node3[1].agent, 1u);
}

TEST(HomeFirstRule, TokenIsVisibleToTheFirstVisitor) {
  // Because of the home-first rule, a visitor can never see a home node
  // without its token: agent 1 probes every node it passes.
  Simulator sim(6, {3, 1}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<WalkerAgent>(0, /*drop_token=*/true);
    return std::make_unique<ProberAgent>(5);
  });
  PriorityScheduler scheduler({1, 0});
  (void)sim.run(scheduler);

  const auto& prober = dynamic_cast<const ProberAgent&>(sim.program(1));
  // Prober starts at node 1, then visits 2,3,4,5,0. Node 3 is observation
  // index 2 and must carry the token.
  ASSERT_EQ(prober.observations().size(), 6u);
  EXPECT_EQ(prober.observations()[2].tokens, 1u);
}

TEST(Fifo, ArrivalOrderMatchesDepartureOrderOnEveryLink) {
  // Two walkers on overlapping routes; under a randomized scheduler the
  // per-link arrival order must still match departure order.
  SimOptions options;
  options.record_events = true;
  Simulator sim(5, {0, 2},
                [](AgentId) { return std::make_unique<WalkerAgent>(13); }, options);
  RandomScheduler scheduler(99);
  (void)sim.run(scheduler);

  // Reconstruct per-link order: Depart at node v = enqueue on link v→v+1;
  // Arrive at node v+1 = dequeue. Sequences must match exactly.
  const std::size_t n = sim.node_count();
  std::vector<std::vector<AgentId>> departs(n), arrives(n);
  for (const Event& e : sim.log().events()) {
    if (e.kind == EventKind::Depart) departs[(e.node + 1) % n].push_back(e.agent);
    if (e.kind == EventKind::Arrive) arrives[e.node].push_back(e.agent);
  }
  for (std::size_t v = 0; v < n; ++v) {
    // The initial buffer contributes one arrival without a departure.
    std::vector<AgentId> expected;
    for (AgentId id = 0; id < sim.agent_count(); ++id) {
      if (sim.homes()[id] == v) expected.push_back(id);
    }
    expected.insert(expected.end(), departs[v].begin(), departs[v].end());
    EXPECT_EQ(arrives[v], expected) << "FIFO violated on link into node " << v;
  }
}

TEST(Messaging, BroadcastReachesOnlyStayingAgents) {
  // Collector sits at node 2 (in the messenger's path); a second walker is
  // in transit somewhere. Only the collector may receive.
  Simulator sim(6, {0, 2, 4}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<MessengerAgent>(2, "hello");
    if (id == 1) return std::make_unique<CollectorAgent>(1);
    return std::make_unique<WalkerAgent>(6);
  });
  RoundRobinScheduler scheduler;
  const RunResult result = sim.run(scheduler);
  EXPECT_TRUE(result.quiescent());
  const auto& collector = dynamic_cast<const CollectorAgent&>(sim.program(1));
  ASSERT_EQ(collector.received().size(), 1u);
  EXPECT_EQ(collector.received()[0], "hello");
}

TEST(Messaging, AllPendingMessagesDeliverInOneAction) {
  // Two messengers drop a message at node 3 before the suspended agent is
  // scheduled; the model delivers both in a single action.
  Simulator sim(8, {1, 2, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<MessengerAgent>(2, "a");
    if (id == 1) return std::make_unique<MessengerAgent>(1, "b");
    return std::make_unique<SuspenderAgent>();
  });
  // Priority: run both messengers to completion before the suspender acts.
  PriorityScheduler scheduler({0, 1, 2});
  (void)sim.run(scheduler);
  const auto& suspender = dynamic_cast<const SuspenderAgent&>(sim.program(2));
  ASSERT_EQ(suspender.wakeups().size(), 1u)
      << "both messages must arrive in one atomic action";
  EXPECT_EQ(suspender.wakeups()[0], 2u);
}

TEST(Messaging, HaltedAgentsIgnoreMessages) {
  // Definition 1: a halted agent neither changes state nor wakes.
  Simulator sim(6, {0, 2}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<SitterAgent>(0);  // halts immediately
    return std::make_unique<MessengerAgent>(4, "ping");    // 2 + 4 = node 0
  });
  RoundRobinScheduler scheduler;
  const RunResult result = sim.run(scheduler);
  EXPECT_TRUE(result.quiescent());
  EXPECT_EQ(sim.status(0), AgentStatus::Halted);
  EXPECT_EQ(sim.snapshot().agents[0].mailbox_size, 0u)
      << "messages to halted agents are dropped";
}

TEST(Messaging, SuspendedAgentWakesOnMessage) {
  Simulator sim(6, {0, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<SuspenderAgent>();
    return std::make_unique<MessengerAgent>(3, "wake");  // 3 + 3 = node 0
  });
  RoundRobinScheduler scheduler;
  const RunResult result = sim.run(scheduler);
  EXPECT_TRUE(result.quiescent());
  const auto& suspender = dynamic_cast<const SuspenderAgent&>(sim.program(0));
  EXPECT_EQ(suspender.wakeups().size(), 1u);
  EXPECT_EQ(sim.status(0), AgentStatus::Suspended);
}

TEST(Messaging, WakeTimestampFollowsSender) {
  // The woken agent's next action must be causally after the sender's
  // broadcast action.
  Simulator sim(6, {0, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<SuspenderAgent>();
    return std::make_unique<MessengerAgent>(3, "wake");
  });
  RoundRobinScheduler scheduler;
  (void)sim.run(scheduler);
  // Messenger: arrival(home)=1 + 3 moves → broadcast at ts 4. Suspender's
  // wakeup action: max(own prev=1, 4) + 1 = 5.
  EXPECT_EQ(sim.metrics().agent(1).causal_time, 4u);
  EXPECT_EQ(sim.metrics().agent(0).causal_time, 5u);
}

TEST(Observation, InTransitAgentsAreInvisible) {
  // A prober passes a node whose queue holds a never-scheduled agent: it
  // must see no one (agents in q_i are not in p_i).
  Simulator sim(6, {0, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<ProberAgent>(5);
    return std::make_unique<SitterAgent>(2);
  });
  // Never run agent 1: it stays in transit inside node 3's queue... except
  // the prober queues behind it at node 3 and forces it through. Its first
  // action makes it Staying, so the prober *does* see it at node 3. Probe
  // nodes 1, 2, 4, 5 instead: nobody there.
  PriorityScheduler scheduler({0, 1});
  (void)sim.run(scheduler);
  const auto& prober = dynamic_cast<const ProberAgent&>(sim.program(0));
  ASSERT_EQ(prober.observations().size(), 6u);
  EXPECT_EQ(prober.observations()[1].others, 0u);  // node 1
  EXPECT_EQ(prober.observations()[2].others, 0u);  // node 2
  EXPECT_EQ(prober.observations()[3].others, 1u);  // node 3: sitter (forced through)
  EXPECT_EQ(prober.observations()[4].others, 0u);  // node 4
}

TEST(Quiescence, WaitingWithoutMessagesIsQuiescentButNotSuspended) {
  Simulator sim(4, {0}, [](AgentId) { return std::make_unique<CollectorAgent>(1); });
  RoundRobinScheduler scheduler;
  const RunResult result = sim.run(scheduler);
  EXPECT_TRUE(result.quiescent()) << "communication deadlock still quiesces";
  EXPECT_FALSE(sim.all_halted());
  EXPECT_FALSE(sim.all_suspended());
  EXPECT_EQ(sim.status(0), AgentStatus::Waiting);
}

TEST(Quiescence, StepAgentRejectsDisabledAgents) {
  Simulator sim(4, {0, 2}, [](AgentId) { return std::make_unique<SitterAgent>(1); });
  EXPECT_TRUE(sim.step_agent(0));
  // Agent 0 now stayed once; agent 1 still in transit (enabled).
  EXPECT_TRUE(sim.step_agent(1));
  RoundRobinScheduler scheduler;
  (void)sim.run(scheduler);
  EXPECT_TRUE(sim.all_halted());
  EXPECT_FALSE(sim.step_agent(0)) << "halted agents are never enabled";
  EXPECT_FALSE(sim.step_agent(7)) << "unknown ids are rejected";
}

TEST(Determinism, SameSeedSameExecution) {
  const auto run_once = [](std::uint64_t seed) {
    Simulator sim(16, {0, 3, 7, 12},
                  [](AgentId) { return std::make_unique<WalkerAgent>(20); });
    RandomScheduler scheduler(seed);
    (void)sim.run(scheduler);
    return std::make_tuple(sim.metrics().total_moves(), sim.metrics().makespan(),
                           sim.staying_nodes());
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_EQ(run_once(123), run_once(123));
}

TEST(Errors, AgentExceptionPropagates) {
  Simulator sim(4, {1}, [](AgentId) { return std::make_unique<ThrowerAgent>(); });
  RoundRobinScheduler scheduler;
  EXPECT_THROW((void)sim.run(scheduler), std::runtime_error);
}

TEST(Invariants, HoldAfterEveryStepOfARandomRun) {
  Simulator sim(10, {0, 2, 5, 8},
                [](AgentId) { return std::make_unique<WalkerAgent>(15, true); });
  RandomScheduler scheduler(2718);
  scheduler.reset(sim.agent_count());
  std::size_t tokens_so_far = 0;
  while (sim.step(scheduler)) {
    tokens_so_far = std::max(tokens_so_far, sim.total_tokens());
    const CheckResult invariants = check_model_invariants(sim, tokens_so_far);
    ASSERT_TRUE(invariants.ok) << invariants.reason;
  }
  EXPECT_EQ(sim.total_tokens(), 4u);
}

TEST(Snapshot, ReflectsConfiguration) {
  Simulator sim(5, {0, 2}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<WalkerAgent>(1, true);
    return std::make_unique<SitterAgent>(0);
  });
  RoundRobinScheduler scheduler;
  (void)sim.run(scheduler);
  const Snapshot snap = sim.snapshot();
  EXPECT_EQ(snap.node_count, 5u);
  EXPECT_EQ(snap.tokens, (std::vector<std::size_t>{1, 0, 0, 0, 0}));
  ASSERT_EQ(snap.agents.size(), 2u);
  EXPECT_EQ(snap.agents[0].node, 1u);
  EXPECT_EQ(snap.agents[0].status, AgentStatus::Halted);
  EXPECT_EQ(snap.agents[1].node, 2u);
  for (const auto& queue : snap.queues) EXPECT_TRUE(queue.empty());
}

// ---- per-node lists: FIFO queues and insertion-ordered staying sets ---------

/// The members of q_node read through link_queue(), checked against the
/// same queue in snapshot().
std::vector<AgentId> queue_of(const Simulator& sim, NodeId node) {
  const ExecutionState::AgentList queue = sim.link_queue(node);
  std::vector<AgentId> members(queue.begin(), queue.end());
  EXPECT_EQ(members.size(), sim.queue_length(node));
  EXPECT_EQ(sim.snapshot().queues.at(node), members);
  return members;
}

std::vector<AgentId> staying_at(const Simulator& sim, NodeId node) {
  const ExecutionState::AgentList set = sim.staying_set(node);
  std::vector<AgentId> members(set.begin(), set.end());
  EXPECT_EQ(members.size(), set.size());
  return members;
}

TEST(NodeLists, QueueStaysFifoAfterNonFifoJumpsFromTheMiddleAndTheTail) {
  // Agent i walks from home i to node 4; step_agent orders the arrivals.
  SimOptions options;
  options.faults.non_fifo = true;
  Simulator sim(
      8, {0, 1, 2, 3},
      [](AgentId id) { return std::make_unique<WalkerAgent>(4 - id); },
      options);
  for (const AgentId id : {3, 2, 2, 1, 1, 1, 0, 0, 0}) {
    ASSERT_TRUE(sim.step_agent(id)) << id;
  }
  EXPECT_EQ(queue_of(sim, 4), (std::vector<AgentId>{3, 2, 1}));
  EXPECT_EQ(queue_of(sim, 3), (std::vector<AgentId>{0}));
  ASSERT_TRUE(sim.step_agent(1));  // jumps from the tail
  EXPECT_EQ(queue_of(sim, 4), (std::vector<AgentId>{3, 2}));
  ASSERT_TRUE(sim.step_agent(0));  // joins behind the new tail
  EXPECT_EQ(queue_of(sim, 4), (std::vector<AgentId>{3, 2, 0}));
  EXPECT_TRUE(queue_of(sim, 3).empty());
  ASSERT_TRUE(sim.step_agent(2));  // jumps from the middle
  EXPECT_EQ(queue_of(sim, 4), (std::vector<AgentId>{3, 0}));
  ASSERT_TRUE(sim.step_agent(3));  // the head arrives
  EXPECT_EQ(queue_of(sim, 4), (std::vector<AgentId>{0}));
  ASSERT_TRUE(sim.step_agent(0));
  EXPECT_TRUE(queue_of(sim, 4).empty());
  EXPECT_TRUE(sim.all_halted());
  EXPECT_EQ(staying_at(sim, 4), (std::vector<AgentId>{1, 2, 3, 0}));
}

/// Walks `hops` nodes, stays there for one action, then moves on one node
/// and halts.
class StayThenLeaveAgent final : public CopyableProgram<StayThenLeaveAgent> {
 public:
  explicit StayThenLeaveAgent(std::size_t hops) : hops_(hops) {}

  [[nodiscard]] std::string_view name() const override {
    return "test-stay-then-leave";
  }

 private:
  Request act(AgentContext& ctx) override {
    UDRING_BEGIN;
    for (moved_ = 0; moved_ < hops_; ++moved_) {
      UDRING_AWAIT(ctx.move());
    }
    UDRING_AWAIT(ctx.stay());
    UDRING_AWAIT(ctx.move());
    UDRING_END;
  }

  std::size_t hops_;
  std::size_t moved_ = 0;
};

TEST(NodeLists, StayingSetKeepsInsertionOrderAcrossRemovals) {
  // Agent i walks from home i to node 5 and stays; step_agent orders the
  // arrivals, then the departures: the last, the first and a middle member.
  Simulator sim(8, {0, 1, 2, 3, 4, 5}, [](AgentId id) {
    return std::make_unique<StayThenLeaveAgent>(5 - id);
  });
  for (const AgentId id : {5, 4, 4, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1}) {
    ASSERT_TRUE(sim.step_agent(id)) << id;
  }
  EXPECT_EQ(staying_at(sim, 5), (std::vector<AgentId>{5, 4, 3, 2, 1}));
  ASSERT_TRUE(sim.step_agent(1));  // the last member leaves
  EXPECT_EQ(staying_at(sim, 5), (std::vector<AgentId>{5, 4, 3, 2}));
  for (int step = 0; step < 6; ++step) ASSERT_TRUE(sim.step_agent(0));
  EXPECT_EQ(staying_at(sim, 5), (std::vector<AgentId>{5, 4, 3, 2, 0}));
  ASSERT_TRUE(sim.step_agent(5));  // the first member leaves
  EXPECT_EQ(staying_at(sim, 5), (std::vector<AgentId>{4, 3, 2, 0}));
  ASSERT_TRUE(sim.step_agent(3));  // a middle member leaves
  EXPECT_EQ(staying_at(sim, 5), (std::vector<AgentId>{4, 2, 0}));
  EXPECT_EQ(queue_of(sim, 6), (std::vector<AgentId>{1, 5, 3}));
  // The leavers halt at node 6 in the order they arrive there.
  for (const AgentId id : {1, 5, 3}) ASSERT_TRUE(sim.step_agent(id)) << id;
  EXPECT_EQ(staying_at(sim, 6), (std::vector<AgentId>{1, 5, 3}));
}

}  // namespace
}  // namespace udring::sim
