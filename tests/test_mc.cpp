// The exhaustive model checker (src/mc): the subsystem that turns
// "for every asynchronous schedule" from a sampled claim into a machine-
// checked one on small instances.
//
// Pins, per the PR's acceptance criteria:
//  1. Exhaustive verification of KnownKFull and KnownKLogMem at small (n, k)
//     on ring, Euler-tree and Eulerian-graph topologies, with exact
//     schedule/state counts that are byte-identical at any worker count
//     (the frontier-sharded decomposition is part of the options, never of
//     the parallelism), plus a literal full-enumeration count on the
//     smallest instance — a number derived from nothing but the simulator's
//     branching structure, so any semantic drift moves it.
//  2. Deterministic (randomness-free) rediscovery of the non-FIFO
//     double-booked-base-node violation, with the emitted counterexample
//     replaying through the existing explore::replay_trace path to the same
//     failure and digest.
//  3. Pruned == unpruned verdict equality on grids where full enumeration
//     is feasible (dedup on and off), plus sharded walks over the one
//     visited store whose verdicts and counts are byte-identical at any
//     worker count, and the store's growth and reserve rules.
//
// Plus the foundation the dedup pruning rests on: ExecutionState::
// config_digest() must hash the configuration and not the history
// (commuting independent actions converge; the event log does not), and
// must never give two structurally different reachable configurations the
// same value — for every algorithm, under faults, and for a test program
// whose token positions record a schedule choice. And ModelCheckReport::
// digest() pins per algorithm and walk mode, which hold every McStats
// field, the verdict and the counterexample.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "config/generators.h"
#include "core/runner.h"
#include "embed/topology.h"
#include "explore/fuzz.h"
#include "explore/trace.h"
#include "mc/model_check.h"
#include "sim/agent.h"
#include "util/rng.h"

namespace udring::mc {
namespace {

[[nodiscard]] CheckRequest ring_request(core::Algorithm algorithm,
                                        std::size_t n,
                                        std::vector<std::size_t> homes) {
  CheckRequest request;
  request.algorithm = algorithm;
  request.node_count = n;
  request.homes = std::move(homes);
  return request;
}

void expect_same_report(const ModelCheckReport& a, const ModelCheckReport& b,
                        const char* what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.verdict, b.verdict) << what;
  EXPECT_EQ(a.stats.schedules, b.stats.schedules) << what;
  EXPECT_EQ(a.stats.states_expanded, b.stats.states_expanded) << what;
  EXPECT_EQ(a.stats.states_deduped, b.stats.states_deduped) << what;
  EXPECT_EQ(a.stats.sleep_pruned, b.stats.sleep_pruned) << what;
  EXPECT_EQ(a.stats.dpor_pruned, b.stats.dpor_pruned) << what;
  EXPECT_EQ(a.stats.replays, b.stats.replays) << what;
  EXPECT_EQ(a.stats.total_actions, b.stats.total_actions) << what;
  EXPECT_EQ(a.stats.max_depth, b.stats.max_depth) << what;
  EXPECT_EQ(a.stats.shards, b.stats.shards) << what;
  EXPECT_EQ(a.digest(), b.digest()) << what;
}

// ---- config_digest: state, not history --------------------------------------

TEST(ConfigDigest, CommutingIndependentActionsConverge) {
  // Two agents with disjoint footprints (homes 0 and 4 on an 8-ring): their
  // first actions commute. Both interleavings must reach the SAME
  // configuration digest while the event-log digests (history) differ.
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 4};
  spec.sim_options.record_events = true;
  auto ab = core::make_simulator(core::Algorithm::KnownKFull, spec);
  auto ba = core::make_simulator(core::Algorithm::KnownKFull, spec);
  ASSERT_TRUE(ab->step_agent(0));
  ASSERT_TRUE(ab->step_agent(1));
  ASSERT_TRUE(ba->step_agent(1));
  ASSERT_TRUE(ba->step_agent(0));
  EXPECT_EQ(ab->config_digest(), ba->config_digest());
  EXPECT_NE(ab->log().digest(), ba->log().digest())
      << "event logs record history and must distinguish the orders";
}

TEST(ConfigDigest, DistinguishesSuccessiveConfigurations) {
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 4};
  auto sim = core::make_simulator(core::Algorithm::KnownKFull, spec);
  const std::uint64_t initial = sim->config_digest();
  ASSERT_TRUE(sim->step_agent(0));
  const std::uint64_t after = sim->config_digest();
  EXPECT_NE(initial, after);
  // A fresh state on the same instance digests identically to the first.
  auto again = core::make_simulator(core::Algorithm::KnownKFull, spec);
  EXPECT_EQ(again->config_digest(), initial);
}

/// A configuration's structural identity, read through snapshot() — never
/// config_digest(), the function under test: token counts, link queues in
/// FIFO order, and per agent status, node, phase, mailbox size and
/// state_hash. The live successor map (stride, pending rewiring) leads it:
/// a rewiring changes nothing else, and without it the enumeration would
/// take every rewired child for its parent.
[[nodiscard]] std::vector<std::uint64_t> structural_key(
    const sim::ExecutionState& state) {
  const sim::Snapshot snap = state.snapshot();
  std::vector<std::uint64_t> key = {state.live_stride(),
                                    state.pending_rewire() ? 1u : 0u};
  key.insert(key.end(), snap.tokens.begin(), snap.tokens.end());
  for (const std::vector<sim::AgentId>& queue : snap.queues) {
    key.push_back(queue.size());
    key.insert(key.end(), queue.begin(), queue.end());
  }
  for (const sim::AgentSnap& agent : snap.agents) {
    key.push_back(static_cast<std::uint64_t>(agent.status));
    key.push_back(agent.node);
    key.push_back(agent.phase);
    key.push_back(agent.mailbox_size);
    key.push_back(agent.state_hash);
  }
  return key;
}

/// Enumerates the configurations reachable from `instance`'s C_0
/// breadth-first — every enabled agent, every candidate of a pending
/// rewiring — deduplicated by structural key, until `cap` distinct ones.
/// Fails when two structurally different configurations share a
/// config_digest() (equal structure may still digest apart: the digest also
/// folds action counts, message payloads and the live fault state).
/// Returns how many configurations it compared.
std::size_t expect_digest_separates_reachable_configurations(
    const sim::Instance& instance, std::size_t cap, const std::string& what) {
  std::set<std::vector<std::uint64_t>> seen;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> by_digest;
  std::deque<sim::ExecutionState> frontier;
  std::size_t collisions = 0;
  const auto visit = [&](sim::ExecutionState&& state) {
    if (seen.size() >= cap) return;
    std::vector<std::uint64_t> key = structural_key(state);
    if (!seen.insert(key).second) return;
    // The key is new, so a digest already taken is a collision.
    const auto [it, inserted] =
        by_digest.try_emplace(state.config_digest(), std::move(key));
    if (!inserted) {
      if (++collisions <= 3) {
        ADD_FAILURE() << what << ": two structurally different configurations "
                      << "share digest " << it->first << " (action "
                      << state.actions_executed() << ")";
      }
    }
    if (!state.quiescent() && state.actions_executed() < state.max_actions()) {
      frontier.push_back(std::move(state));
    }
  };
  sim::ExecutionState root;
  root.reset(instance);
  visit(std::move(root));
  std::vector<sim::AgentId> sorted;
  while (!frontier.empty() && seen.size() < cap) {
    const sim::ExecutionState state = std::move(frontier.front());
    frontier.pop_front();
    if (state.pending_rewire()) {
      for (std::size_t c = 0; c < state.rewire_candidate_count(); ++c) {
        sim::ExecutionState child = state;
        child.apply_rewire(c);
        visit(std::move(child));
      }
      continue;
    }
    sorted.assign(state.enabled().begin(), state.enabled().end());
    std::sort(sorted.begin(), sorted.end());
    for (const sim::AgentId agent : sorted) {
      sim::ExecutionState child = state;
      EXPECT_TRUE(child.step_agent(agent)) << what;
      visit(std::move(child));
    }
  }
  EXPECT_EQ(collisions, 0u) << what;
  return seen.size();
}

TEST(ConfigDigest, NoCollisionAmongReachableConfigurationsOfEveryAlgorithm) {
  // The sparse sections (occupied nodes, non-empty queues) must keep the
  // encoding injective on every algorithm's reachable states. A token entry
  // that lost its node index stays hidden here (tokens lie at homes); the
  // MeetingDropper test below exposes that slip.
  Rng rng(29);
  for (const core::Algorithm algorithm : explore::all_algorithms()) {
    for (const std::size_t n : {7u, 8u}) {
      core::RunSpec spec;
      spec.node_count = n;
      spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, n, 3, 1, rng);
      spec.sim_options.record_events = false;
      const sim::Instance instance = core::make_instance(algorithm, spec);
      const std::string what = std::string(core::to_string(algorithm)) +
                               " n=" + std::to_string(n);
      EXPECT_GT(expect_digest_separates_reachable_configurations(instance, 3000,
                                                                 what),
                200u)
          << what;
    }
  }
}

TEST(ConfigDigest, NoCollisionUnderNonFifoLinksOrCrashAndRewire) {
  {
    // The non-FIFO fault lets agents overtake inside a queue: queue order
    // and mail are where such states differ.
    core::RunSpec spec;
    spec.node_count = 8;
    spec.homes = {0, 1, 3, 6};
    spec.sim_options.record_events = false;
    spec.sim_options.faults.non_fifo = true;
    spec.sim_options.faults.non_fifo_min_phase = 1;
    const sim::Instance instance =
        core::make_instance(core::Algorithm::KnownKLogMemStrict, spec);
    EXPECT_GT(expect_digest_separates_reachable_configurations(
                  instance, 6000, "known-k-logmem-strict non-FIFO"),
              1000u);
  }
  {
    // A crash-stop fault and a rewiring point: corpses, the live stride and
    // the fault cursors are folded too.
    core::RunSpec spec;
    spec.node_count = 8;
    spec.homes = {0, 2, 5};
    spec.sim_options.record_events = false;
    spec.sim_options.faults.crashes = {sim::CrashFault{2, 12}};
    spec.sim_options.faults.rewire_at = {5};
    const sim::Instance instance =
        core::make_instance(core::Algorithm::KnownKFull, spec);
    EXPECT_GT(expect_digest_separates_reachable_configurations(
                  instance, 6000, "known-k-full crash + rewire"),
              1000u);
  }
}

/// A program whose token position is the only record of a schedule choice:
/// the walker moves every action and drops its token where it first finds
/// another agent staying; the stopper alternates staying and moving. Where
/// the two meet depends on the interleaving, while each agent's node,
/// action count and state_hash do not.
class MeetingDropper final : public sim::CopyableProgram<MeetingDropper> {
 public:
  explicit MeetingDropper(bool walker) noexcept : walker_(walker) {}

  [[nodiscard]] std::string_view name() const override {
    return "meeting-dropper";
  }
  [[nodiscard]] std::uint64_t state_hash() const override {
    return (walker_ ? 2u : 0u) | (dropped_ ? 1u : 0u);
  }

 protected:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    while (true) {
      if (walker_ && !dropped_ && ctx.others_staying_here() > 0) {
        ctx.release_token();
        dropped_ = true;
      }
      if (!walker_) {
        UDRING_AWAIT(ctx.stay());
      }
      UDRING_AWAIT(ctx.move());
    }
    UDRING_END;
  }

 private:
  bool walker_;
  bool dropped_ = false;
};

TEST(ConfigDigest, NoCollisionWhenOnlyATokenPositionDiffers) {
  // The in-tree algorithms drop their tokens at their homes, so a token's
  // node follows from the agents' action counts and an entry that lost its
  // node index would still never collide there. Here it would: the
  // walker's token lies wherever it met the stopper.
  sim::SimOptions options;
  options.record_events = false;
  const sim::Instance instance(
      8, {0, 3},
      [](sim::AgentId id) -> std::unique_ptr<sim::AgentProgram> {
        return std::make_unique<MeetingDropper>(id == 0);
      },
      options);
  EXPECT_GT(expect_digest_separates_reachable_configurations(
                instance, 3000, "meeting dropper"),
            1000u);
}

/// Steps a fresh state of `instance` along a random schedule (`rng` draws an
/// index into the sorted enabled set, or a stride for a pending rewiring)
/// and keeps sim::DigestComponents by update() alone: after every action its
/// digest must equal a from-scratch config_digest(). Returns the actions
/// checked.
std::size_t expect_footprint_digest_matches(const sim::Instance& instance,
                                            Rng& rng, const std::string& what) {
  sim::ExecutionState state;
  state.reset(instance);
  sim::DigestComponents components;
  components.rebuild(state);
  EXPECT_EQ(components.digest(state), state.config_digest()) << what;
  std::vector<sim::AgentId> sorted;
  std::size_t actions = 0;
  while (!state.quiescent() && state.actions_executed() < state.max_actions()) {
    if (state.pending_rewire()) {
      state.apply_rewire(rng.index(state.rewire_candidate_count()));
    } else {
      sorted.assign(state.enabled().begin(), state.enabled().end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(state.step_agent(sorted[rng.index(sorted.size())])) << what;
      components.update(state);
      ++actions;
    }
    if (components.digest(state) != state.config_digest()) {
      ADD_FAILURE() << what << ": the footprint-updated digest differs from "
                    << "config_digest() after action " << actions;
      break;
    }
  }
  return actions;
}

TEST(ConfigDigest, FootprintUpdateEqualsAFullRehashAfterEveryAction) {
  // The update re-hashes the actor, the footprint nodes and the agents
  // staying at the acting node (broadcast receivers); a crash re-hashes
  // every agent. Any component it misses shows up as a mismatch here.
  Rng rng(2031);
  for (const core::Algorithm algorithm : explore::all_algorithms()) {
    for (const explore::FuzzTopology topology :
         {explore::FuzzTopology::Ring, explore::FuzzTopology::Tree,
          explore::FuzzTopology::Graph}) {
      const explore::DrawnInstance drawn =
          explore::draw_instance(topology, 9, 4, rng);
      for (int plan = 0; plan < 3; ++plan) {
        core::RunSpec spec;
        spec.node_count = drawn.node_count;
        spec.homes = drawn.homes;
        spec.topology = drawn.topology;
        spec.sim_options.record_events = false;
        std::string what = std::string(core::to_string(algorithm)) + " on " +
                           std::string(explore::to_string(topology));
        if (plan == 1) {
          spec.sim_options.faults.non_fifo = true;
          what += " non-FIFO";
        } else if (plan == 2) {
          spec.sim_options.faults.crashes = {sim::CrashFault{1, 7}};
          spec.sim_options.faults.rewire_at = {4, 11};
          spec.sim_options.faults.normalize();
          what += " crash+rewire";
        }
        const sim::Instance instance = core::make_instance(algorithm, spec);
        for (int schedule = 0; schedule < 3; ++schedule) {
          EXPECT_GT(expect_footprint_digest_matches(instance, rng, what), 0u)
              << what;
        }
      }
    }
  }
}

// ---- 1. exhaustive verification, counts stable across workers ---------------

TEST(Exhaustive, KnownKFullSmallestInstanceFullEnumerationCount) {
  // n = 6, k = 2, dedup off: the walk IS the full schedule tree.
  // 2704 complete schedules (6989 tree nodes) is a structural constant of
  // the simulator's atomic-action semantics for homes {0, 3} — a number
  // independent of any hash function, so any drift in the action semantics,
  // the enabled-set rule, or the choice encoding moves it.
  McOptions options;
  options.dedup_states = false;
  const ModelCheckReport report =
      check(ring_request(core::Algorithm::KnownKFull, 6, {0, 3}), options);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.verdict, "verified");
  EXPECT_EQ(report.stats.schedules, 2704u);
  EXPECT_EQ(report.stats.states_expanded, 6989u);
  EXPECT_EQ(report.stats.states_deduped, 0u);
  EXPECT_EQ(report.stats.sleep_pruned, 0u);
  EXPECT_EQ(report.stats.dpor_pruned, 0u);
}

class ExhaustiveAlgorithms
    : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(ExhaustiveAlgorithms, VerifiedOnSmallRingAtAnyWorkerCount) {
  Rng rng(7);
  CheckRequest request = ring_request(
      GetParam(), 8, exp::draw_homes(exp::ConfigFamily::RandomAny, 8, 3, 1, rng));
  McOptions options;
  options.frontier_target = 6;  // sharded decomposition: fixed by options
  options.workers = 1;
  const ModelCheckReport serial = check(request, options);
  EXPECT_TRUE(serial.ok) << serial.failure_reason;
  EXPECT_TRUE(serial.complete);
  EXPECT_GT(serial.stats.schedules, 0u);
  EXPECT_GT(serial.stats.states_expanded, 0u);
  EXPECT_GT(serial.stats.shards, 1u);
  for (const std::size_t workers : {2u, 4u}) {
    McOptions sharded = options;
    sharded.workers = workers;
    expect_same_report(serial, check(request, sharded),
                       "worker count changed the report");
  }
}

TEST_P(ExhaustiveAlgorithms, VerifiedNativelyOnEulerTreeAndEulerianGraph) {
  // The §5 embeddings, checked exhaustively on their native virtual rings.
  Rng rng(19);
  for (const embed::RandomNetworkKind kind :
       {embed::RandomNetworkKind::Tree, embed::RandomNetworkKind::Graph}) {
    CheckRequest request;
    request.algorithm = GetParam();
    request.topology = embed::random_network_topology(kind, 5, rng);
    request.node_count = request.topology.size();
    request.homes = embed::draw_virtual_homes(request.topology, 2, rng);
    const ModelCheckReport report = check(request);
    EXPECT_TRUE(report.ok) << report.failure_reason;
    EXPECT_TRUE(report.complete);
    EXPECT_GT(report.stats.states_expanded, 0u);
  }
}

TEST_P(ExhaustiveAlgorithms, VerifiedAtIssueScaleWithPruning) {
  // The tentpole's stated grid corner: n = 12 (full) / 10 (logmem), k = 4 —
  // feasible only because dedup cuts the tree to its state DAG.
  const bool logmem = GetParam() == core::Algorithm::KnownKLogMem;
  const std::size_t n = logmem ? 10 : 12;
  const ModelCheckReport report =
      check(ring_request(GetParam(), n, gen::uniform_homes(n, 4)));
  EXPECT_TRUE(report.ok) << report.failure_reason;
  EXPECT_TRUE(report.complete);
  EXPECT_GT(report.stats.states_deduped, 0u);
}

/// Every edge of a walk steps one action and every backtrack undoes one, so
/// a walk with no rewiring plan executes one action per edge: one into
/// every expanded state but the root, one into every dedup hit and one into
/// every schedule's last configuration.
void expect_one_action_per_edge(const McStats& s, const std::string& what) {
  EXPECT_EQ(s.total_actions,
            s.states_expanded - 1 + s.states_deduped + s.schedules)
      << what;
}

TEST_P(ExhaustiveAlgorithms, SeedOneWalkCountsArePinned) {
  // The `udring_mc --seed=1 --n=12 --k=4` draws. Schedules, states, dedup
  // counts and depth are properties of the closure, not of how the walk
  // backtracks, so undoing edges must reproduce them exactly. replays == 0
  // and total_actions == the edge count keep the walk from re-executing
  // anything.
  struct Pin {
    std::size_t schedules, expanded, deduped, sleep_pruned, max_depth,
        total_actions;
  };
  const Pin pin = GetParam() == core::Algorithm::KnownKFull
                      ? Pin{1, 5576, 11837, 0, 88, 17413}
                      : Pin{6, 6442, 12247, 0, 115, 18694};
  Rng rng(1);
  const explore::DrawnInstance drawn =
      explore::draw_instance(explore::FuzzTopology::Ring, 12, 4, rng);
  const ModelCheckReport report =
      check(ring_request(GetParam(), drawn.node_count, drawn.homes));
  EXPECT_TRUE(report.ok) << report.failure_reason;
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.stats.schedules, pin.schedules);
  EXPECT_EQ(report.stats.states_expanded, pin.expanded);
  EXPECT_EQ(report.stats.states_deduped, pin.deduped);
  EXPECT_EQ(report.stats.sleep_pruned, pin.sleep_pruned);
  EXPECT_EQ(report.stats.dpor_pruned, 0u);
  EXPECT_EQ(report.stats.max_depth, pin.max_depth);
  EXPECT_EQ(report.stats.replays, 0u);
  EXPECT_EQ(report.stats.total_actions, pin.total_actions);
  expect_one_action_per_edge(report.stats, "seed-one walk");
  EXPECT_EQ(report.stats.shards, 1u);
}

TEST(Exhaustive, LargestSeedOneWalkCountsArePinned) {
  // The largest pinned `--seed=1` walks, each closed in about 0.1 s
  // (Release): known-k-full at n = 24, known-k-logmem at n = 20, whose
  // states carry broadcast mail, and unknown-relaxed at n = 12, whose mail
  // carries variable-length distance sequences; k = 4. Walked serially and
  // cut into 64 frontier shards racing on 4 workers over the one visited
  // store, the closure (states, dedup answers, depth) is the same, and so
  // are the actions: one per edge of the closure. Only the shard counts are
  // each walk's own.
  struct Pin {
    core::Algorithm algorithm;
    std::size_t n, expanded, deduped, max_depth, actions, shards;
  };
  const Pin pins[] = {
      {core::Algorithm::KnownKFull, 24, 63893, 159803, 174, 223696, 65},
      {core::Algorithm::KnownKLogMem, 20, 50214, 111304, 199, 161525, 79},
      {core::Algorithm::UnknownRelaxed, 12, 65636, 143969, 616, 209605, 71}};
  McOptions serial;
  serial.workers = 1;
  McOptions sharded;
  sharded.frontier_target = 64;
  sharded.workers = 4;
  for (const Pin& pin : pins) {
    Rng rng(1);
    const explore::DrawnInstance drawn =
        explore::draw_instance(explore::FuzzTopology::Ring, pin.n, 4, rng);
    const CheckRequest request =
        ring_request(pin.algorithm, drawn.node_count, drawn.homes);
    for (const bool shard : {false, true}) {
      const ModelCheckReport report = check(request, shard ? sharded : serial);
      const std::string what = std::string(core::to_string(pin.algorithm)) +
                               (shard ? " sharded" : " serial");
      EXPECT_TRUE(report.ok && report.complete) << what;
      EXPECT_EQ(report.stats.states_expanded, pin.expanded) << what;
      EXPECT_EQ(report.stats.states_deduped, pin.deduped) << what;
      EXPECT_EQ(report.stats.max_depth, pin.max_depth) << what;
      EXPECT_EQ(report.stats.replays, 0u) << what;
      EXPECT_EQ(report.stats.total_actions, pin.actions) << what;
      expect_one_action_per_edge(report.stats, what);
      EXPECT_EQ(report.stats.shards, shard ? pin.shards : 1u) << what;
    }
  }
}

TEST(Exhaustive, SeedOneDrawsVerifyInEveryWalkMode) {
  // Small `--seed=1` draws, each verified over all schedules: serially and
  // sharded, on a ring and on an Euler-tree ring, for the companion
  // problem families, for a deployer judged as a disperser, with dedup off
  // (the full schedule tree), and as the cells of a campaign grid.
  struct Row {
    const char* what;
    core::Algorithm algorithm;
    explore::FuzzTopology topology;
    std::size_t n, k;
    core::ProblemSpec problem;
    McOptions options;
  };
  McOptions sharded;
  sharded.frontier_target = 8;
  sharded.workers = 0;
  McOptions no_dedup;
  no_dedup.dedup_states = false;
  const core::ProblemSpec disperse{core::Problem::Disperse, 0};
  const explore::FuzzTopology ring = explore::FuzzTopology::Ring;
  const Row rows[] = {
      {"n=8 k=3", core::Algorithm::KnownKFull, ring, 8, 3, {}, {}},
      {"n=8 k=3 sharded", core::Algorithm::KnownKFull, ring, 8, 3, {}, sharded},
      {"n=8 k=3", core::Algorithm::KnownKLogMem, ring, 8, 3, {}, {}},
      {"tree n=5 k=2", core::Algorithm::KnownKFull,
       explore::FuzzTopology::Tree, 5, 2, {}, {}},
      {"n=6 k=2", core::Algorithm::GatherRing, ring, 6, 2, {}, {}},
      {"n=6 k=2", core::Algorithm::DisperseRing, ring, 6, 2, {}, {}},
      {"n=6 k=2 disperse", core::Algorithm::KnownKFull, ring, 6, 2, disperse,
       {}},
      {"n=6 k=2 no dedup", core::Algorithm::KnownKFull, ring, 6, 2, {},
       no_dedup}};
  for (const Row& row : rows) {
    Rng rng(1);
    explore::DrawnInstance drawn =
        explore::draw_instance(row.topology, row.n, row.k, rng);
    CheckRequest request;
    request.algorithm = row.algorithm;
    request.problem = row.problem;
    request.node_count = drawn.node_count;
    request.homes = std::move(drawn.homes);
    request.topology = std::move(drawn.topology);
    const ModelCheckReport report = check(request, row.options);
    EXPECT_EQ(report.verdict, "verified")
        << core::to_string(row.algorithm) << ' ' << row.what << ": "
        << report.failure_reason;
    EXPECT_TRUE(report.complete) << core::to_string(row.algorithm) << ' '
                                 << row.what;
    expect_one_action_per_edge(
        report.stats, std::string(core::to_string(row.algorithm)) + ' ' +
                          row.what);
  }
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.node_counts = {6};
  grid.agent_counts = {2};
  grid.seeds = 2;
  const GridReport report = check_grid(grid);
  EXPECT_EQ(report.cells.size(), 2u);
  EXPECT_TRUE(report.all_verified());
  for (const GridCell& cell : report.cells) {
    expect_one_action_per_edge(cell.report.stats, "grid cell");
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGrids, ExhaustiveAlgorithms,
                         ::testing::Values(core::Algorithm::KnownKFull,
                                           core::Algorithm::KnownKLogMem),
                         [](const auto& info) {
                           std::string name(core::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ReportDigest, PinnedForEveryAlgorithmAcrossWalkModes) {
  // One small drawn instance per algorithm, walked two ways: the default
  // serial walk, and the walk cut into frontier shards, at one worker and at
  // four. digest() folds every McStats field, the verdict and the
  // counterexample, so these pins hold each walk's expansion order, dedup
  // answers and shard split. None of that may depend on config_digest()'s
  // values, the visited store's layout or the worker count — only on which
  // configurations the digests identify.
  struct Pin {
    std::uint64_t walk, sharded;
  };
  // Pairs that walk the same tree on this FIFO instance share their pins
  // (Algorithm 1 with k or n known; the hardened and literal Algorithms
  // 2+3; rendezvous and 2-partial gathering, which for three agents both
  // gather all of them).
  const std::map<core::Algorithm, Pin> pins = {
      {core::Algorithm::KnownKFull,
       {0xba07f6347a8f5b3d, 0x73811c8c969dc77c}},
      {core::Algorithm::KnownNFull,
       {0xba07f6347a8f5b3d, 0x73811c8c969dc77c}},
      {core::Algorithm::KnownKLogMem,
       {0x75600b9af89349c9, 0x7e910096eff42d14}},
      {core::Algorithm::KnownKLogMemStrict,
       {0x75600b9af89349c9, 0x7e910096eff42d14}},
      {core::Algorithm::UnknownRelaxed,
       {0x1f7d2410c3ce0c09, 0x13f8d870e02dca37}},
      {core::Algorithm::Rendezvous,
       {0x258cab672fc16269, 0x94f127d1334fed7f}},
      {core::Algorithm::GatherRing,
       {0x258cab672fc16269, 0x94f127d1334fed7f}},
      {core::Algorithm::DisperseRing,
       {0xdec5034d5705df45, 0xfe881c3973006619}},
  };
  McOptions sharded;
  sharded.frontier_target = 6;
  for (const core::Algorithm algorithm : explore::all_algorithms()) {
    Rng rng(5);
    const explore::DrawnInstance drawn =
        explore::draw_instance(explore::FuzzTopology::Ring, 7, 3, rng);
    const CheckRequest request =
        ring_request(algorithm, drawn.node_count, drawn.homes);
    const Pin& want = pins.at(algorithm);
    const std::string what(core::to_string(algorithm));
    const std::uint64_t walk = check(request).digest();
    EXPECT_EQ(walk, want.walk) << what << std::hex << " walk 0x" << walk;
    for (const std::size_t workers : {1u, 4u}) {
      sharded.workers = workers;
      const std::uint64_t got = check(request, sharded).digest();
      EXPECT_EQ(got, want.sharded)
          << what << " workers=" << workers << std::hex << " sharded 0x"
          << got;
    }
  }
}

// ---- 2. deterministic rediscovery of the non-FIFO violation -----------------

[[nodiscard]] CheckRequest stress_fault_request(core::Algorithm algorithm) {
  CheckRequest request = ring_request(algorithm, gen::kLogmemStressNodes,
                                      gen::logmem_stress_homes());
  request.faults.non_fifo = true;
  // Deployment-phase window (see sim::FaultPlan::non_fifo_min_phase).
  request.faults.non_fifo_min_phase = 1;
  return request;
}

TEST(FaultRediscovery, FindsDoubleBookedBaseNodeWithoutRandomness) {
  // PR 2's fuzzer needed randomized adversarial search to surface this; the
  // checker's plain DFS order finds it with zero random bits.
  const ModelCheckReport report =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.verdict, "violation");
  EXPECT_EQ(report.failure_reason, "goal: two agents share node 0");
  ASSERT_TRUE(report.counterexample.has_value());

  // The counterexample is a first-class trace: the existing replay path
  // reproduces the exact failure and digest (udring_fuzz --replay accepts it).
  const explore::ScheduleTrace& trace = *report.counterexample;
  EXPECT_EQ(trace.note, report.failure_reason);
  // The walk meets this 147-action schedule first, and its digest pins the
  // execution.
  EXPECT_EQ(trace.choices.size(), 147u);
  EXPECT_EQ(trace.expected_digest, 1625982170551763769ULL);
  const explore::ReplayOutcome replayed = explore::replay_trace(trace);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.reason, report.failure_reason);
  EXPECT_EQ(replayed.digest, trace.expected_digest);

  // Determinism: a second check is byte-identical, counterexample included.
  const ModelCheckReport again =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict));
  expect_same_report(report, again, "rediscovery must be deterministic");
  ASSERT_TRUE(again.counterexample.has_value());
  EXPECT_EQ(again.counterexample->choices, trace.choices);
}

TEST(FaultRediscovery, HardenedVariantSurvivesTheSameSearchBudget) {
  // Same instance, same fault, hardened deployment: the checker must NOT
  // find a violation within a budget far larger than the strict variant
  // needed (the strict counterexample is ~150 actions deep).
  CheckRequest request = stress_fault_request(core::Algorithm::KnownKLogMem);
  McOptions options;
  options.budget_actions = 200000;
  const ModelCheckReport report = check(request, options);
  EXPECT_TRUE(report.ok) << report.failure_reason;
}

TEST(FaultRediscovery, VerdictIdenticalUnderEveryPruningCombination) {
  for (const bool dedup : {false, true}) {
    McOptions options;
    options.dedup_states = dedup;
    const ModelCheckReport report = check(
        stress_fault_request(core::Algorithm::KnownKLogMemStrict), options);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.failure_reason, "goal: two agents share node 0")
        << "dedup=" << dedup;
  }
}

// ---- 3. pruned == unpruned verdicts on fully enumerable grids ---------------

TEST(PruningSoundness, VerdictEqualOnFullyEnumerableGrid) {
  struct Cell {
    core::Algorithm algorithm;
    std::size_t n;
  };
  const std::vector<Cell> grid = {
      {core::Algorithm::KnownKFull, 5},
      {core::Algorithm::KnownKFull, 6},
      {core::Algorithm::KnownKFull, 7},
      {core::Algorithm::KnownKLogMem, 5},
      {core::Algorithm::KnownKLogMem, 6},
  };
  Rng rng(31);
  for (const Cell& cell : grid) {
    const CheckRequest request = ring_request(
        cell.algorithm, cell.n,
        exp::draw_homes(exp::ConfigFamily::RandomAny, cell.n, 2, 1, rng));
    ModelCheckReport reference;  // fully unpruned = ground truth
    bool have_reference = false;
    for (const bool dedup : {false, true}) {
      McOptions options;
      options.dedup_states = dedup;
      const ModelCheckReport report = check(request, options);
      EXPECT_TRUE(report.complete)
          << core::to_string(cell.algorithm) << " n=" << cell.n;
      if (!have_reference) {
        reference = report;
        have_reference = true;
        EXPECT_GT(report.stats.schedules, 0u);
      }
      EXPECT_EQ(report.ok, reference.ok)
          << core::to_string(cell.algorithm) << " n=" << cell.n
          << " dedup=" << dedup;
      EXPECT_EQ(report.verdict, reference.verdict);
      // Pruning may only shrink the walk, never grow it.
      EXPECT_LE(report.stats.schedules, reference.stats.schedules);
      EXPECT_LE(report.stats.states_expanded, reference.stats.states_expanded);
    }
  }
}

// ---- the one visited store --------------------------------------------------

TEST(OneStore, VerdictAndCountsIdenticalAtAnyWorkerCount) {
  // The closure-walk contract (model_check.h): every count is a function of
  // the claimed closure, so the full report — not just the verdict — is
  // byte-identical whether shards race on 1, 2 or 4 threads.
  const CheckRequest request =
      ring_request(core::Algorithm::KnownKFull, 8, {0, 3, 6});
  McOptions options;
  options.frontier_target = 6;
  options.workers = 1;
  const ModelCheckReport sharded = check(request, options);
  EXPECT_TRUE(sharded.ok) << sharded.failure_reason;
  EXPECT_TRUE(sharded.complete);
  EXPECT_GT(sharded.stats.states_deduped, 0u);
  EXPECT_GT(sharded.stats.shards, 1u);
  EXPECT_EQ(sharded.stats.replays, 0u) << "shard roots are copied states";
  for (const std::size_t workers : {2u, 4u}) {
    McOptions racing = options;
    racing.workers = workers;
    expect_same_report(sharded, check(request, racing),
                       "worker count changed the sharded report");
  }
  // The serial walk claims the same closure and steps each of its edges
  // once: only the shard count differs.
  const ModelCheckReport serial = check(request);
  EXPECT_EQ(serial.verdict, sharded.verdict);
  EXPECT_EQ(serial.stats.schedules, sharded.stats.schedules);
  EXPECT_EQ(serial.stats.states_expanded, sharded.stats.states_expanded);
  EXPECT_EQ(serial.stats.states_deduped, sharded.stats.states_deduped);
  EXPECT_EQ(serial.stats.max_depth, sharded.stats.max_depth);
  EXPECT_EQ(serial.stats.total_actions, sharded.stats.total_actions);
}

TEST(OneStore, FaultPlansWalkAsOneShard) {
  // A plan with fault events ignores frontier_target: it walks as one shard
  // rooted at C_0, so at any worker count its report is the frontier-1
  // report.
  CheckRequest request = ring_request(core::Algorithm::KnownKFull, 6, {0, 3});
  request.faults.crashes = {{1, 4}};
  request.faults.rewire_at = {2};
  request.faults.normalize();
  const ModelCheckReport serial = check(request);
  EXPECT_EQ(serial.stats.shards, 1u);
  for (const std::size_t workers : {1u, 4u}) {
    McOptions options;
    options.frontier_target = 8;
    options.workers = workers;
    const ModelCheckReport report = check(request, options);
    EXPECT_EQ(report.stats.shards, 1u) << workers << " workers";
    expect_same_report(serial, report, "a fault plan was sharded");
  }
}

TEST(OneStore, ViolationFallsBackToTheDeterministicWalk) {
  // Which racing shard trips a violation first is nondeterministic, so a
  // violation found at more than one worker is re-checked at one worker
  // with the same frontier: the report — counterexample included — must be
  // byte-identical to the one-worker check's, and the counterexample must
  // replay.
  McOptions options;
  options.frontier_target = 6;
  options.workers = 4;
  const ModelCheckReport racing =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict), options);
  McOptions one_worker = options;
  one_worker.workers = 1;
  const ModelCheckReport serial = check(
      stress_fault_request(core::Algorithm::KnownKLogMemStrict), one_worker);
  ASSERT_FALSE(racing.ok);
  EXPECT_EQ(racing.failure_reason, "goal: two agents share node 0");
  expect_same_report(serial, racing, "violation fallback must be exact");
  ASSERT_TRUE(racing.counterexample.has_value());
  ASSERT_TRUE(serial.counterexample.has_value());
  EXPECT_EQ(racing.counterexample->choices, serial.counterexample->choices);
  const explore::ReplayOutcome replayed =
      explore::replay_trace(*racing.counterexample);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.reason, racing.failure_reason);
}

TEST(OneStore, SerialWalkGrowsPastTheReserve) {
  // A walk one thread drives owns the store and grows it, so the reserve
  // does not bound it: this closure is far past 64 slots and still closes,
  // with the same report as the default options.
  const CheckRequest request = ring_request(core::Algorithm::KnownKFull, 12,
                                            gen::uniform_homes(12, 4));
  McOptions options;
  options.shared_visited_capacity = 64;
  const ModelCheckReport report = check(request, options);
  EXPECT_EQ(report.verdict, "verified");
  EXPECT_GT(report.stats.states_expanded, 64u * 8);
  expect_same_report(check(request), report,
                     "the reserve changed a serial walk");
}

TEST(OneStore, UndersizedReserveDegradesToBudgetExhaustion) {
  // Workers cannot grow the store they race on: a full store may not
  // silently drop states, so the run must downgrade to "budget-exhausted"
  // (incomplete, not wrong).
  McOptions options;
  options.shared_visited_capacity = 64;  // far below this instance's closure
  options.frontier_target = 8;
  options.workers = 4;
  const ModelCheckReport report = check(
      ring_request(core::Algorithm::KnownKFull, 12, gen::uniform_homes(12, 4)),
      options);
  EXPECT_TRUE(report.ok);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.verdict, "budget-exhausted");
}

TEST(OneStore, RejectsAnOverflowingReserveAtAnyWorkerCount) {
  // The reserve is validated before the walk, even when a serial walk would
  // never use it: 2^63 + 1 and 2^62 + 1 slots overflow std::size_t.
  const CheckRequest request =
      ring_request(core::Algorithm::KnownKFull, 6, {0, 3});
  for (const std::size_t capacity :
       {std::size_t{9223372036854775809ULL},
        std::size_t{4611686018427387905ULL}}) {
    for (const std::size_t workers : {1u, 2u}) {
      McOptions options;
      options.shared_visited_capacity = capacity;
      options.frontier_target = 4;
      options.workers = workers;
      EXPECT_THROW((void)check(request, options), std::invalid_argument)
          << capacity << " at " << workers << " workers";
    }
  }
}

TEST(FaultRediscovery, CapSensitiveCounterexampleReplaysStandAlone) {
  // A violation found under a custom per-schedule action cap must stay
  // replayable through the default replay path: the trace carries its
  // max-actions, so `udring_fuzz --replay` needs no extra flags.
  CheckRequest request =
      ring_request(core::Algorithm::KnownKFull, 8, {0, 2, 5});
  request.max_actions = 20;  // far below this instance's ~50-action runs
  const ModelCheckReport report = check(request);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure_reason,
            "action limit reached (livelock or broken algorithm)");
  ASSERT_TRUE(report.counterexample.has_value());
  EXPECT_EQ(report.counterexample->max_actions, 20u);

  // Round-trip through the text format, then replay with NO explicit cap.
  const explore::ScheduleTrace reparsed =
      explore::ScheduleTrace::parse(report.counterexample->to_text());
  EXPECT_EQ(reparsed.max_actions, 20u);
  const explore::ReplayOutcome replayed = explore::replay_trace(reparsed);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.reason, report.failure_reason);
  EXPECT_EQ(replayed.digest, report.counterexample->expected_digest);
}

// ---- budget + report plumbing -----------------------------------------------

TEST(Budget, ExhaustionIsReportedNotMistakenForAVerdict) {
  McOptions options;
  options.budget_actions = 50;  // far below the tree size
  const ModelCheckReport report =
      check(ring_request(core::Algorithm::KnownKFull, 8, {0, 2, 5}), options);
  EXPECT_TRUE(report.ok);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.verdict, "budget-exhausted");
  EXPECT_FALSE(report.counterexample.has_value());
}

TEST(Report, CollisionBoundIsStatesSquaredOverTwoToThe65) {
  EXPECT_EQ(collision_bound(0), "0.0e+00");
  EXPECT_EQ(collision_bound(5576), "8.4e-13");  // the n=12 seed-one walk
  EXPECT_EQ(collision_bound(std::size_t{1} << 32), "5.0e-01");
}

TEST(Report, RejectsEmptyInstance) {
  EXPECT_THROW((void)check(ring_request(core::Algorithm::KnownKFull, 6, {})),
               std::invalid_argument);
}

// ---- campaign integration ---------------------------------------------------

TEST(GridIntegration, ChecksTheSameInstancesTheCampaignSamples) {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.node_counts = {6, 8};
  grid.agent_counts = {2};
  grid.seeds = 2;
  const GridReport report = check_grid(grid);
  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_TRUE(report.all_verified());
  EXPECT_EQ(report.violations, 0u);

  // Each cell checked exactly the configuration the campaign's substream
  // contract derives — "verified over all schedules" sits beside sampled
  // cells as evidence about the SAME instances.
  const std::vector<exp::Scenario> scenarios = exp::expand(grid);
  ASSERT_EQ(scenarios.size(), report.cells.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(report.cells[i].homes,
              exp::scenario_homes(grid, scenarios[i]));
    EXPECT_TRUE(report.cells[i].report.complete);
  }

  EXPECT_EQ(report.summary_table().rows(), report.cells.size());
  EXPECT_NE(report.summary().find("verified over all schedules"),
            std::string::npos);
  // Grid checking is deterministic end to end.
  EXPECT_EQ(report.digest(), check_grid(grid).digest());
}

TEST(GridIntegration, CellVerdictMatchesDirectCheck) {
  // A grid cell is exactly mc::check on the scenario's drawn instance with
  // the grid's sim options — fault knobs and action caps included. Pin the
  // equivalence on a faulted strict-logmem grid (whatever each drawn
  // instance yields, the cell must match the direct call byte for byte).
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKLogMemStrict};
  grid.instances = {{gen::kLogmemStressNodes, 6}};
  grid.seeds = 2;
  grid.sim_options.faults.non_fifo = true;
  grid.sim_options.faults.non_fifo_min_phase = 1;
  McOptions options;
  options.budget_actions = 100000;
  const GridReport report = check_grid(grid, options);
  ASSERT_EQ(report.cells.size(), 2u);
  for (const GridCell& cell : report.cells) {
    CheckRequest request;
    request.algorithm = cell.algorithm;
    request.node_count = cell.node_count;
    request.homes = cell.homes;
    request.faults = grid.sim_options.faults;
    const ModelCheckReport direct = check(request, options);
    EXPECT_EQ(direct.verdict, cell.report.verdict);
    EXPECT_EQ(direct.failure_reason, cell.report.failure_reason);
    EXPECT_EQ(direct.digest(), cell.report.digest());
  }
  EXPECT_EQ(report.violations == 0 && report.budget_exhausted == 0,
            report.all_verified());
}

TEST(GridIntegration, EveryCellIsCheckedUnderTheGridPlan) {
  // A grid runs under its one fault plan: the crash grid's cell must be
  // checked under it (the campaign engine runs it there and scores it 0%
  // ok), not reported verified. The clean grid at the same base_seed is
  // its paired table: it checks the same drawn instance.
  exp::CampaignGrid clean;
  clean.algorithms = {core::Algorithm::KnownKFull};
  clean.node_counts = {6};
  clean.agent_counts = {2};
  clean.seeds = 1;
  sim::FaultPlan crash;
  crash.crashes = {{0, 0}};
  exp::CampaignGrid faulty = clean;
  faulty.sim_options.faults = crash;
  const GridReport clean_report = check_grid(clean);
  const GridReport report = check_grid(faulty);
  ASSERT_EQ(clean_report.cells.size(), 1u);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_TRUE(clean_report.all_verified());
  EXPECT_EQ(clean_report.cells[0].report.verdict, "verified");
  const GridCell& cell = report.cells[0];
  EXPECT_EQ(cell.homes, clean_report.cells[0].homes);  // paired
  EXPECT_FALSE(cell.report.ok);
  EXPECT_EQ(cell.report.verdict, "violation");
  EXPECT_EQ(report.violations, 1u);
  EXPECT_FALSE(report.all_verified());

  // The counterexample carries the grid's plan and replays stand-alone.
  ASSERT_TRUE(cell.report.counterexample.has_value());
  const explore::ScheduleTrace& trace = *cell.report.counterexample;
  EXPECT_EQ(trace.faults, crash);
  const explore::ScheduleTrace reparsed =
      explore::ScheduleTrace::parse(trace.to_text());
  const explore::ReplayOutcome replayed = explore::replay_trace(reparsed);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.digest, trace.expected_digest);

  // The cell equals a direct check of its homes under the plan.
  CheckRequest request =
      ring_request(core::Algorithm::KnownKFull, 6, cell.homes);
  request.faults = crash;
  const ModelCheckReport direct = check(request);
  EXPECT_EQ(direct.digest(), cell.report.digest());
  EXPECT_EQ(direct.failure_reason, cell.report.failure_reason);
}

}  // namespace
}  // namespace udring::mc
