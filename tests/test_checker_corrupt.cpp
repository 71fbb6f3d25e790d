// Corrupted configurations: every model-invariant kind, and the queue links
// a checker must survive.
//
// No legal action produces these states, so the tests build them by editing
// a copy of a state through ExecutionStateTestAccess (support/
// state_access.h). For each kind, check_model_invariants must report the
// exact pinned reason, the incremental checker's full safety net the same
// one, and a state with two violations the one the ordered walk meets first.
// The queue walks are bounded by k members: a cycle or a link outside the
// agent ids is a named violation, not a hang or an out-of-bounds access, in
// both checkers. A randomized test compares the checker with a plain
// reference walk on thousands of random corruptions.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "exp/campaign.h"
#include "sim/checker.h"
#include "sim/execution_state.h"
#include "support/state_access.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::sim {
namespace {

using Access = ExecutionStateTestAccess;
constexpr AgentId kEnd = ExecutionState::kNoAgent;

/// Three agents on a 10-ring before any action: each is the one member of
/// the queue into its home (q_0 = [0], q_4 = [1], q_7 = [2]). Agent 0 walks
/// three steps, agent 1 one step, and agent 2 stays two rounds.
Simulator fresh_ring() {
  const auto factory = [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<test::WalkerAgent>(3);
    if (id == 1) return std::make_unique<test::WalkerAgent>(1);
    return std::make_unique<test::SitterAgent>(2);
  };
  return Simulator(10, {0, 4, 7}, factory);
}

/// The incremental checker's full safety net on `state`, a corrupted copy of
/// `clean` that has taken no action: the checker is bound to `clean` and
/// runs a full check after every action, and with no footprint to revalidate
/// the reason can only come from that full check (or the O(1) token check).
CheckResult safety_net(const Simulator& clean, const Simulator& state,
                       std::size_t min_tokens) {
  IncrementalInvariantChecker checker(
      IncrementalInvariantChecker::Options{.full_check_every = 1});
  EXPECT_TRUE(checker.reset(clean, 0).ok);
  EXPECT_TRUE(state.last_action_nodes().empty());
  return checker.check_after_action(state, min_tokens);
}

struct Corruption {
  const char* name;
  void (*apply)(Simulator&);
  std::size_t min_tokens;
  const char* reason;
};

constexpr const char* kCycleAt4 =
    "link queue into node 4 runs past all 3 agents: its links form a cycle";

const Corruption kEveryKind[] = {
    {"tokens decreased", [](Simulator&) {}, 1, "token count decreased: 0 < 1"},
    {"member status",
     [](Simulator& s) { Access::set_status(s, 1, AgentStatus::Waiting); }, 0,
     "agent 1 is in queue to node 4 but has status waiting"},
    {"member destination", [](Simulator& s) { Access::set_node(s, 1, 5); }, 0,
     "agent 1 queue/destination mismatch"},
    {"in transit, in no queue",
     [](Simulator& s) { Access::set_queue_head(s, 4, kEnd); }, 0,
     "in-transit agent 1 appears in 0 queues"},
    {"link out of range", [](Simulator& s) { Access::set_queue_next(s, 1, 9); },
     0, "link queue into node 4 links to agent 9, but there are only 3 agents"},
    {"head out of range", [](Simulator& s) { Access::set_queue_head(s, 4, 3); },
     0, "link queue into node 4 links to agent 3, but there are only 3 agents"},
    {"self-loop", [](Simulator& s) { Access::set_queue_next(s, 1, 1); }, 0,
     kCycleAt4},
    {"two-agent cycle",
     [](Simulator& s) {
       Access::set_node(s, 2, 4);
       Access::set_queue_next(s, 1, 2);
       Access::set_queue_next(s, 2, 1);
     },
     0, kCycleAt4},
};

TEST(CorruptState, EveryKindIsNamedByBothCheckers) {
  const Simulator clean = fresh_ring();
  ASSERT_TRUE(check_model_invariants(clean, 0).ok);
  for (const Corruption& corruption : kEveryKind) {
    SCOPED_TRACE(corruption.name);
    Simulator state = clean;
    corruption.apply(state);
    const CheckResult full =
        check_model_invariants(state, corruption.min_tokens);
    EXPECT_FALSE(full.ok);
    EXPECT_EQ(full.reason, corruption.reason);
    EXPECT_EQ(safety_net(clean, state, corruption.min_tokens).reason,
              corruption.reason);
  }
}

TEST(CorruptState, TwoViolationsReportTheOrderedWalksFirst) {
  const Simulator clean = fresh_ring();
  const Corruption kPairs[] = {
      // Tokens come before every queue.
      {"tokens, then a member",
       [](Simulator& s) { Access::set_status(s, 0, AgentStatus::Halted); }, 1,
       "token count decreased: 0 < 1"},
      // Queues are walked in node order: q_0 before q_7.
      {"two members",
       [](Simulator& s) {
         Access::set_status(s, 2, AgentStatus::Staying);
         Access::set_node(s, 0, 3);
       },
       0, "agent 0 queue/destination mismatch"},
      {"a member, then a bad link",
       [](Simulator& s) {
         Access::set_status(s, 1, AgentStatus::Suspended);
         Access::set_queue_head(s, 0, 5);
       },
       0,
       "link queue into node 0 links to agent 5, but there are only 3 "
       "agents"},
      // A queue is checked before the per-agent occurrence sweep.
      {"an agent in no queue, then a cycle",
       [](Simulator& s) {
         Access::set_queue_head(s, 4, kEnd);
         Access::set_queue_next(s, 2, 2);
       },
       0,
       "link queue into node 7 runs past all 3 agents: its links form a "
       "cycle"},
      // Within a queue, a member's check comes before the walk's end.
      {"a member inside a cycle",
       [](Simulator& s) {
         Access::set_queue_next(s, 2, 2);
         Access::set_status(s, 2, AgentStatus::Halted);
       },
       0, "agent 2 is in queue to node 7 but has status halted"},
  };
  for (const Corruption& pair : kPairs) {
    SCOPED_TRACE(pair.name);
    Simulator state = clean;
    pair.apply(state);
    EXPECT_EQ(check_model_invariants(state, pair.min_tokens).reason,
              pair.reason);
    EXPECT_EQ(safety_net(clean, state, pair.min_tokens).reason, pair.reason);
  }
}

TEST(CorruptState, QueueOfExactlyKAgentsIsLegal) {
  // The walk bound is k members: a queue holding every agent must pass.
  Simulator state = fresh_ring();
  Access::set_queue_head(state, 0, kEnd);
  Access::set_queue_head(state, 7, kEnd);
  Access::set_queue_head(state, 4, 1);
  Access::set_queue_next(state, 1, 0);
  Access::set_queue_next(state, 0, 2);
  Access::set_queue_next(state, 2, kEnd);
  Access::set_node(state, 0, 4);
  Access::set_node(state, 2, 4);
  const CheckResult verdict = check_model_invariants(state, 0);
  EXPECT_TRUE(verdict.ok) << verdict.reason;
  IncrementalInvariantChecker checker;
  EXPECT_TRUE(checker.reset(state, 0).ok);
}

TEST(CorruptState, IncrementalWalksStopAtACycleOrABadLink) {
  // A corrupted link inside the footprint: before walks were bounded, a
  // cycle grew the shadow queue until memory ran out and a link past k
  // indexed the per-agent counts out of bounds.
  const Simulator before = fresh_ring();
  const std::pair<AgentId, const char*> kLinks[] = {
      {0,
       "link queue into node 1 runs past all 3 agents: its links form a "
       "cycle"},
      {1000,
       "link queue into node 1 links to agent 1000, but there are only 3 "
       "agents"},
  };
  for (const auto& [link, reason] : kLinks) {
    SCOPED_TRACE(reason);
    IncrementalInvariantChecker checker(
        IncrementalInvariantChecker::Options{.full_check_every = 0});
    ASSERT_TRUE(checker.reset(before, 0).ok);
    Simulator after = before;
    ASSERT_TRUE(after.step_agent(0));  // agent 0 leaves its home for q_1
    ASSERT_EQ(after.queue_head(1), 0u);
    Access::set_queue_next(after, 0, link);
    EXPECT_EQ(checker.check_after_action(after, 0).reason, reason);
    EXPECT_EQ(check_model_invariants(after, 0).reason, reason);
    // Adopting the corrupted state copies each queue up to where its walk
    // stops, and the full check names the fault.
    IncrementalInvariantChecker adopting;
    EXPECT_EQ(adopting.reset(after, 0).reason, reason);
  }
}

TEST(CorruptState, StaleShadowReachesTheOtherOccurrenceKinds) {
  // Three occurrence kinds need an agent counted in a queue whose member
  // check passed while its status or another queue disagrees. One
  // destination per agent rules that out for the full sweep: it always meets
  // a member violation or a cycle first. The incremental checker reaches
  // them when its shadow is stale — bound to one state, then asked about a
  // state two actions later, a breach of its one-action contract — and the
  // states themselves pass the full check.
  const Simulator before = fresh_ring();
  const auto stale_verdict = [&](Simulator& after) {
    IncrementalInvariantChecker checker(
        IncrementalInvariantChecker::Options{.full_check_every = 0});
    EXPECT_TRUE(checker.reset(before, 0).ok);
    EXPECT_TRUE(check_model_invariants(after, 0).ok);
    return checker.check_after_action(after, 0).reason;
  };
  {
    // Agent 0 walked 0 -> 1 -> 2; the shadow still holds it in q_0.
    Simulator after = before;
    ASSERT_TRUE(after.step_agent(0));
    ASSERT_TRUE(after.step_agent(0));
    EXPECT_EQ(stale_verdict(after), "in-transit agent 0 appears in 2 queues");
    // A corpse frozen in q_2 alone is legal.
    Access::set_status(after, 0, AgentStatus::Crashed);
    EXPECT_EQ(stale_verdict(after), "crashed agent 0 appears in 2 queues");
  }
  {
    // Agent 1 walked 4 -> 5 and halted there; the shadow still holds it in
    // q_4.
    Simulator after = before;
    ASSERT_TRUE(after.step_agent(1));
    ASSERT_TRUE(after.step_agent(1));
    ASSERT_EQ(after.status(1), AgentStatus::Halted);
    EXPECT_EQ(stale_verdict(after),
              "staying agent 1 also appears in a link queue");
  }
}

// ---- randomized: the checker against a plain reference walk -----------------

/// check_model_invariants' reason, computed the plain way: the same checks
/// in the same order, with early exits and the same walk bound.
std::string reference_reason(const Simulator& s, std::size_t min_tokens) {
  std::ostringstream why;
  if (s.total_tokens() < min_tokens) {
    why << "token count decreased: " << s.total_tokens() << " < " << min_tokens;
    return why.str();
  }
  const std::size_t k = s.agent_count();
  std::vector<std::size_t> seen(k, 0);
  for (NodeId node = 0; node < s.node_count(); ++node) {
    std::size_t members = 0;
    for (AgentId id = s.queue_head(node); id != kEnd; id = s.queue_next(id)) {
      if (id >= k) {
        why << "link queue into node " << node << " links to agent " << id
            << ", but there are only " << k << " agents";
        return why.str();
      }
      if (members++ == k) {
        why << "link queue into node " << node << " runs past all " << k
            << " agents: its links form a cycle";
        return why.str();
      }
      ++seen[id];
      const AgentStatus status = s.status(id);
      if (status != AgentStatus::InTransit && status != AgentStatus::Crashed) {
        why << "agent " << id << " is in queue to node " << node
            << " but has status " << to_string(status);
        return why.str();
      }
      if (s.agent_node(id) != node) {
        why << "agent " << id << " queue/destination mismatch";
        return why.str();
      }
    }
  }
  for (AgentId id = 0; id < k; ++id) {
    switch (s.status(id)) {
      case AgentStatus::Crashed:
        if (seen[id] > 1) {
          why << "crashed agent " << id << " appears in " << seen[id]
              << " queues";
          return why.str();
        }
        break;
      case AgentStatus::InTransit:
        if (seen[id] != 1) {
          why << "in-transit agent " << id << " appears in " << seen[id]
              << " queues";
          return why.str();
        }
        break;
      default:
        if (seen[id] != 0) {
          why << "staying agent " << id << " also appears in a link queue";
          return why.str();
        }
        break;
    }
  }
  return "";
}

TEST(CorruptState, RandomCorruptionsMatchTheReferenceWalk) {
  Rng rng(4242);
  std::size_t failing = 0;
  std::size_t trials = 0;
  for (int run = 0; run < 12; ++run) {
    const std::size_t k = 2 + rng.index(5);
    const std::size_t n = 8 + rng.index(17);
    core::RunSpec spec;
    spec.node_count = n;
    spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, n, k, 1, rng);
    auto sim = core::make_simulator(core::Algorithm::KnownKLogMem, spec);
    RandomScheduler scheduler(rng());
    scheduler.attach(*sim);
    scheduler.reset(k);
    do {
      for (int trial = 0; trial < 40; ++trial, ++trials) {
        Simulator state = *sim;
        const std::size_t edits = 1 + rng.index(3);
        for (std::size_t e = 0; e < edits; ++e) {
          // Links point at an agent, past the last one, or nowhere.
          const auto any_link = [&] {
            const std::size_t pick = rng.index(k + 3);
            return pick < k + 2 ? pick : kEnd;
          };
          switch (rng.index(4)) {
            case 0:
              Access::set_status(state, rng.index(k),
                                 static_cast<AgentStatus>(rng.index(6)));
              break;
            case 1:
              Access::set_node(state, rng.index(k), rng.index(n));
              break;
            case 2:
              Access::set_queue_head(state, rng.index(n), any_link());
              break;
            default:
              Access::set_queue_next(state, rng.index(k), any_link());
              break;
          }
        }
        const std::size_t min_tokens =
            state.total_tokens() + (rng.index(8) == 0 ? 1 : 0);
        const std::string want = reference_reason(state, min_tokens);
        const CheckResult got = check_model_invariants(state, min_tokens);
        ASSERT_EQ(got.ok, want.empty()) << want << " / " << got.reason;
        ASSERT_EQ(got.reason, want);
        failing += want.empty() ? 0 : 1;
      }
    } while (sim->step(scheduler) && rng.index(8) != 0);
  }
  // Most random edits break an invariant; a few leave a legal state.
  EXPECT_GT(trials, 2000u);
  EXPECT_GT(failing, trials / 2);
  EXPECT_LT(failing, trials);
}

}  // namespace
}  // namespace udring::sim
