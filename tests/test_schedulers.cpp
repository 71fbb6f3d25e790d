// Tests for sim/scheduler.h: each scheduler family must be deterministic
// given its seed, respect the enabled set, and drive workloads to
// completion (fairness on terminating runs). Round-robin's two draws (the
// attached state's enabled_bits() mask and the enabled-set scan) must agree
// on every cursor and enabled set.

#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "config/generators.h"
#include "core/runner.h"
#include "sim/simulator.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::sim {
namespace {

using test::SitterAgent;
using test::WalkerAgent;

/// The enabled set as enabled_bits() must hold it: ⌈k/64⌉ words, bit id % 64
/// of word id / 64.
std::vector<std::uint64_t> mask_of(const ExecutionState& sim) {
  std::vector<std::uint64_t> words((sim.agent_count() + 63) / 64, 0);
  for (const AgentId id : sim.enabled()) {
    words[id / 64] |= std::uint64_t{1} << (id % 64);
  }
  return words;
}

std::vector<std::uint64_t> bits_of(const ExecutionState& sim) {
  const auto bits = sim.enabled_bits();
  return {bits.begin(), bits.end()};
}

/// k agents on a k-ring, each alone at its home and halting on its first
/// action: all start enabled, and stepping an agent disables it for good, so
/// any non-empty set of ids can be left enabled.
Instance halting_instance(std::size_t k) {
  std::vector<NodeId> homes(k);
  std::iota(homes.begin(), homes.end(), NodeId{0});
  return Instance(k, std::move(homes),
                  [](AgentId) { return std::make_unique<WalkerAgent>(0); });
}

void keep_enabled_only(ExecutionState& sim, const std::vector<bool>& keep) {
  for (AgentId id = 0; id < keep.size(); ++id) {
    if (!keep[id]) {
      ASSERT_TRUE(sim.step_agent(id));
    }
  }
}

/// Moves a round-robin cursor to `cursor` by a scan-path pick of agent
/// cursor - 1 (mod `agent_count`, the count of the scheduler's last reset).
void seek(RoundRobinScheduler& scheduler, std::size_t cursor,
          std::size_t agent_count) {
  const std::vector<AgentId> one = {(cursor + agent_count - 1) % agent_count};
  (void)scheduler.pick(one);
}

/// Logs the picks of the scheduler it wraps. It forwards attach() and hands
/// pick() the same vector, as RecordingScheduler does, so the wrapped
/// scheduler keeps its attached draw (round-robin's mask, the synchronous
/// cursor).
template <typename Inner>
class PickLog final : public Scheduler {
 public:
  void attach(const ExecutionState& sim) override { inner_.attach(sim); }
  void reset(std::size_t agent_count) override {
    inner_.reset(agent_count);
    picks.clear();
  }
  AgentId pick(const std::vector<AgentId>& enabled) override {
    picks.push_back(inner_.pick(enabled));
    return picks.back();
  }
  [[nodiscard]] std::string_view name() const override { return "pick-log"; }
  [[nodiscard]] std::uint64_t rounds() const override {
    return inner_.rounds();
  }

  std::vector<AgentId> picks;

 private:
  Inner inner_;
};

TEST(RoundRobin, CyclesThroughAllAgents) {
  RoundRobinScheduler scheduler;
  scheduler.reset(4);
  const std::vector<AgentId> all = {0, 1, 2, 3};
  std::vector<AgentId> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(scheduler.pick(all));
  EXPECT_EQ(picks, (std::vector<AgentId>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(RoundRobin, SkipsDisabledAgents) {
  RoundRobinScheduler scheduler;
  scheduler.reset(4);
  EXPECT_EQ(scheduler.pick({1, 3}), 1u);
  EXPECT_EQ(scheduler.pick({1, 3}), 3u);
  EXPECT_EQ(scheduler.pick({1, 3}), 1u);
}

TEST(RoundRobinMask, DrawMatchesTheScanForEveryCursorAndSubset) {
  Rng rng(5);
  for (const std::size_t k : {1, 63, 64, 65, 128, 129, 256}) {
    const Instance instance = halting_instance(k);
    // Every agent, the first alone, the last alone (alone in the top word),
    // then random sets from sparse to dense.
    std::vector<std::vector<bool>> subsets(3, std::vector<bool>(k, false));
    subsets[0].assign(k, true);
    subsets[1][0] = true;
    subsets[2][k - 1] = true;
    for (const double density : {0.02, 0.1, 0.5, 0.9}) {
      for (int draw = 0; draw < 2; ++draw) {
        std::vector<bool> keep(k);
        for (std::size_t id = 0; id < k; ++id) keep[id] = rng.chance(density);
        keep[rng.index(k)] = true;  // never empty
        subsets.push_back(keep);
      }
    }
    for (const std::vector<bool>& keep : subsets) {
      ExecutionState sim;
      sim.reset(instance);
      keep_enabled_only(sim, keep);
      const std::vector<AgentId> copy = sim.enabled();
      RoundRobinScheduler fast;
      RoundRobinScheduler reference;
      fast.attach(sim);
      fast.reset(k);
      reference.reset(k);
      for (std::size_t cursor = 0; cursor < k; ++cursor) {
        seek(fast, cursor, k);
        seek(reference, cursor, k);
        // The draw at this cursor, then the draw at the cursor it advanced to.
        for (int draw = 0; draw < 2; ++draw) {
          ASSERT_EQ(fast.pick(sim.enabled()), reference.pick(copy))
              << "k=" << k << " cursor=" << cursor << " draw=" << draw
              << " enabled=" << copy.size();
        }
      }
    }
  }
}

TEST(RoundRobinMask, CursorPastTheLastMaskWordWrapsToWordZero) {
  // A pooled scheduler last reset for 256 agents draws for a state since
  // reset onto fewer: its cursor can sit at or past the state's last mask
  // word. The draw must wrap to word 0 and must not read the words the
  // 256-agent instance left in the vector's capacity (all ones here).
  const Instance big = halting_instance(256);
  for (const std::size_t k : {10, 64, 65, 100}) {
    ExecutionState sim;
    sim.reset(big);
    RoundRobinScheduler fast;
    fast.attach(sim);
    fast.reset(256);
    sim.reset(halting_instance(k));
    std::vector<bool> keep(k, false);
    keep[3] = keep[k / 2] = keep[k - 1] = true;
    keep_enabled_only(sim, keep);
    ASSERT_EQ(sim.enabled_bits().size(), (k + 63) / 64);
    const std::vector<AgentId> copy = sim.enabled();
    RoundRobinScheduler reference;
    reference.reset(256);
    for (const std::size_t cursor : {k, std::size_t{63}, std::size_t{64},
                                     std::size_t{127}, std::size_t{128},
                                     std::size_t{200}, std::size_t{255}}) {
      if (cursor < k) continue;
      seek(fast, cursor, 256);
      seek(reference, cursor, 256);
      const AgentId pick = fast.pick(sim.enabled());
      EXPECT_EQ(pick, reference.pick(copy))
          << "k=" << k << " cursor=" << cursor;
      EXPECT_EQ(pick, 3u) << "k=" << k << " cursor=" << cursor;
    }
  }
}

TEST(RoundRobinMask, ResetForFewerAgentsThanTheStateKeepsTheScan) {
  // Reset for 10 agents while attached to a 100-agent state: the scan's
  // cyclic keys order only ids below 10, where the mask would take the
  // first set bit anywhere. The draw must stay the scan's.
  ExecutionState sim;
  sim.reset(halting_instance(100));
  std::vector<bool> keep(100, false);
  keep[20] = keep[50] = keep[70] = true;
  keep_enabled_only(sim, keep);
  const std::vector<AgentId> copy = sim.enabled();
  RoundRobinScheduler fast;
  RoundRobinScheduler reference;
  fast.attach(sim);
  fast.reset(10);
  reference.reset(10);
  for (int draw = 0; draw < 4; ++draw) {
    ASSERT_EQ(fast.pick(sim.enabled()), reference.pick(copy))
        << "draw " << draw;
  }
}

TEST(RoundRobinMask, AttachedRunsMatchScanDrivenRuns) {
  // ExecutionState::run attaches the scheduler, so every draw takes the mask;
  // the reference run hands an unattached scheduler a copy of enabled() per
  // step_agent, so every draw scans.
  for (const auto& [algorithm, n, k] :
       {std::tuple{core::Algorithm::KnownKFull, 256, 65},
        std::tuple{core::Algorithm::KnownKFull, 320, 130},
        std::tuple{core::Algorithm::KnownKLogMem, 256, 100}}) {
    Rng rng(k);
    core::RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    spec.sim_options.record_events = true;
    const Instance instance = core::make_instance(algorithm, spec);

    ExecutionState attached;
    attached.reset(instance);
    PickLog<RoundRobinScheduler> logged;
    ASSERT_TRUE(attached.run(logged).quiescent());

    ExecutionState scanned;
    scanned.reset(instance);
    RoundRobinScheduler reference;
    reference.reset(scanned.agent_count());
    std::vector<AgentId> picks;
    while (!scanned.quiescent()) {
      const std::vector<AgentId> copy = scanned.enabled();
      picks.push_back(reference.pick(copy));
      ASSERT_TRUE(scanned.step_agent(picks.back()));
    }
    EXPECT_EQ(logged.picks, picks) << core::to_string(algorithm) << " k=" << k;
    EXPECT_EQ(attached.log().digest(), scanned.log().digest())
        << core::to_string(algorithm) << " k=" << k;
  }
}

TEST(RoundRobinMask, EnabledBitsTrackTheEnabledSet) {
  const auto instance_for = [](std::size_t n, std::size_t k) {
    Rng rng(n * k);
    core::RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    return core::make_instance(core::Algorithm::KnownKFull, spec);
  };
  const Instance instance = instance_for(320, 130);
  ExecutionState sim;
  sim.reset(instance);
  ASSERT_EQ(sim.enabled_bits().size(), 3u);
  ASSERT_EQ(bits_of(sim), mask_of(sim));

  RoundRobinScheduler scheduler;
  scheduler.attach(sim);
  scheduler.reset(sim.agent_count());
  ExecutionState snapshot;
  while (sim.step(scheduler)) {
    ASSERT_EQ(bits_of(sim), mask_of(sim))
        << "after action " << sim.actions_executed();
    if (sim.actions_executed() == 1000) {
      snapshot = sim;  // copy-assign into an empty state
      ASSERT_EQ(bits_of(snapshot), mask_of(snapshot));
    }
  }
  ASSERT_TRUE(sim.quiescent());
  EXPECT_EQ(bits_of(sim), std::vector<std::uint64_t>(3, 0));

  sim = snapshot;  // copy-assign over a finished run of the same instance
  EXPECT_FALSE(sim.quiescent());
  EXPECT_EQ(bits_of(sim), mask_of(sim));

  // Reset onto fewer agents: two words, and only bit 0 of the top one may
  // be set (agent 64); nothing of the 130-agent run survives.
  sim.reset(instance_for(160, 65));
  ASSERT_EQ(sim.enabled_bits().size(), 2u);
  EXPECT_EQ(bits_of(sim), mask_of(sim));
  EXPECT_EQ(sim.enabled_bits()[1] >> 1, 0u);
  sim.reset(instance_for(16, 5));
  ASSERT_EQ(sim.enabled_bits().size(), 1u);
  EXPECT_EQ(bits_of(sim), mask_of(sim));
  EXPECT_EQ(sim.enabled_bits()[0] >> 5, 0u);
}

// ---- the synchronous cursor -------------------------------------------------

/// Forwards every call to a SynchronousScheduler and hands its pick() the
/// same vector, as RecordingScheduler does, so an attached inner scheduler
/// resumes at its cursor. Each draw is checked against the reference scan:
/// an unattached SynchronousScheduler with the same history, handed a copy.
class CheckedSynchronous final : public Scheduler {
 public:
  void attach(const ExecutionState& sim) override { fast_.attach(sim); }
  void reset(std::size_t agent_count) override {
    fast_.reset(agent_count);
    reference_.reset(agent_count);
  }
  AgentId pick(const std::vector<AgentId>& enabled) override {
    copy_ = enabled;
    const AgentId want = reference_.pick(copy_);
    const AgentId got = fast_.pick(enabled);
    ++draws;
    if ((got != want || fast_.rounds() != reference_.rounds()) &&
        mismatches++ == 0) {
      first_mismatch = draws;
    }
    return got;
  }
  [[nodiscard]] std::string_view name() const override { return "checked"; }
  [[nodiscard]] std::uint64_t rounds() const override { return fast_.rounds(); }

  std::size_t draws = 0;
  std::size_t mismatches = 0;
  std::size_t first_mismatch = 0;  ///< 1-based draw index

 private:
  SynchronousScheduler fast_;
  SynchronousScheduler reference_;
  std::vector<AgentId> copy_;
};

constexpr std::size_t kCursorAgentCounts[] = {1, 2, 64, 65, 256};
constexpr core::Algorithm kCursorAlgorithms[] = {core::Algorithm::KnownKFull,
                                                 core::Algorithm::KnownKLogMem};

/// `algorithm` with k agents at seeded random homes on a ring of 2k + 3
/// nodes.
Instance cursor_instance(core::Algorithm algorithm, std::size_t k,
                         SimOptions options = {}) {
  Rng rng(1000 * k + static_cast<std::size_t>(algorithm));
  core::RunSpec spec;
  spec.node_count = 2 * k + 3;
  spec.homes = gen::random_homes(spec.node_count, k, rng);
  spec.sim_options = std::move(options);
  return core::make_instance(algorithm, spec);
}

/// Crash-stop faults for about a quarter of the agents, after every first
/// action (so every token is down) and spread over the run, so crashes
/// remove agents from anywhere in the enabled set, below the cursor too.
SimOptions crash_plan(std::size_t k) {
  SimOptions options;
  Rng rng(k + 17);
  std::vector<AgentId> victims(k);
  std::iota(victims.begin(), victims.end(), AgentId{0});
  rng.shuffle(victims);
  victims.resize(k / 4 + 1);
  for (const AgentId agent : victims) {
    options.faults.crashes.push_back({agent, k + rng.index(4 * k * k + 8)});
  }
  return options;
}

std::string label(core::Algorithm algorithm, std::size_t k) {
  return std::string(core::to_string(algorithm)) + " k=" + std::to_string(k);
}

TEST(SynchronousCursor, RunsMatchTheReferenceScanOnEveryAction) {
  // ExecutionState::run attaches the scheduler, so every draw resumes at
  // the cursor. Crashes remove agents below it, and under the non-FIFO
  // fault an arrival can enable several agents queued behind the arriving
  // one at once. Every run here reaches quiescence, the non-FIFO ones too,
  // so none needs an action budget.
  for (const core::Algorithm algorithm : kCursorAlgorithms) {
    for (const std::size_t k : kCursorAgentCounts) {
      SimOptions non_fifo;
      non_fifo.faults.non_fifo = true;
      const std::pair<const char*, SimOptions> plans[] = {
          {"fault-free", SimOptions{}},
          {"crash", crash_plan(k)},
          {"non-FIFO", non_fifo}};
      for (const auto& [plan, options] : plans) {
        const Instance instance = cursor_instance(algorithm, k, options);
        ExecutionState sim;
        sim.reset(instance);
        CheckedSynchronous scheduler;
        EXPECT_EQ(sim.run(scheduler).outcome, RunResult::Outcome::Quiescent)
            << label(algorithm, k) << ' ' << plan;
        EXPECT_EQ(scheduler.draws, sim.actions_executed());
        EXPECT_EQ(scheduler.mismatches, 0u)
            << label(algorithm, k) << ' ' << plan << ": first at draw "
            << scheduler.first_mismatch;
      }
    }
  }
}

TEST(SynchronousCursor, HandSteppedRunsMatchTheReferenceScan) {
  // Runs stepped by hand: step_agent() between draws, two schedulers
  // alternating on one state (under a crash plan, so a removal below one
  // scheduler's cursor can come before the other's draw clears the floor),
  // and a scheduler reset mid-run, which must draw like a fresh one.
  for (const core::Algorithm algorithm : kCursorAlgorithms) {
    for (const std::size_t k : kCursorAgentCounts) {
      const Instance instance = cursor_instance(algorithm, k, crash_plan(k));
      Rng rng(k);
      ExecutionState sim;
      sim.reset(instance);
      CheckedSynchronous a;
      CheckedSynchronous b;
      for (CheckedSynchronous* scheduler : {&a, &b}) {
        scheduler->attach(sim);
        scheduler->reset(k);
      }
      const std::size_t reset_at = 3 * k + 1;
      while (!sim.quiescent()) {
        if (sim.actions_executed() == reset_at) a.reset(k);
        const std::size_t roll = rng.index(8);
        if (roll == 0) {
          const std::vector<AgentId>& enabled = sim.enabled();
          ASSERT_TRUE(sim.step_agent(enabled[rng.index(enabled.size())]));
        } else {
          ASSERT_TRUE(sim.step(roll < 6 ? a : b));
        }
      }
      EXPECT_GT(b.draws, 0u);
      EXPECT_EQ(a.mismatches, 0u) << label(algorithm, k)
                                  << ": first at draw " << a.first_mismatch;
      EXPECT_EQ(b.mismatches, 0u) << label(algorithm, k)
                                  << ": first at draw " << b.first_mismatch;
    }
  }
}

TEST(SynchronousCursor, CopyAssignedStatesMatchTheReferenceScan) {
  // The scheduler stays attached while the state it draws for is
  // copy-assigned: once from an earlier snapshot of itself, once from a
  // state of the same instance that another scheduler drove to the very
  // action count the cursor expects. Both hold enabled sets no draw of
  // this scheduler has seen.
  for (const core::Algorithm algorithm : kCursorAlgorithms) {
    for (const std::size_t k : kCursorAgentCounts) {
      const Instance instance = cursor_instance(algorithm, k);
      ExecutionState sim;
      sim.reset(instance);
      CheckedSynchronous scheduler;
      scheduler.attach(sim);
      scheduler.reset(k);
      ExecutionState snapshot;
      ExecutionState other;
      other.reset(instance);
      PriorityScheduler priority;
      priority.attach(other);
      priority.reset(k);
      const std::size_t snapshot_at = k + k / 2 + 1;
      const std::size_t restore_at = 4 * k + 3;
      const std::size_t replace_at = 6 * k + 5;
      bool restored = false;
      bool replaced = false;
      while (sim.step(scheduler)) {
        const std::size_t t = sim.actions_executed();
        if (t == snapshot_at && !restored) {
          snapshot = sim;
        } else if (t == restore_at && !restored) {
          sim = snapshot;
          restored = true;
        } else if (t == replace_at && restored && !replaced) {
          while (other.actions_executed() < t && other.step(priority)) {
          }
          if (other.actions_executed() == t) {
            sim = other;
            replaced = true;
          }
        }
      }
      if (k >= 2) {
        EXPECT_TRUE(restored && replaced) << label(algorithm, k);
      }
      EXPECT_EQ(scheduler.mismatches, 0u)
          << label(algorithm, k) << ": first at draw "
          << scheduler.first_mismatch;
    }
  }
}

TEST(SynchronousCursor, PooledReuseOntoFewerAndMoreAgents) {
  // One pooled state and one scheduler object across runs of different
  // sizes, as core::RunContext drives a campaign: run() re-attaches and
  // resets, and stepping by hand resets the scheduler alone (the state
  // object, so the attachment, is the same).
  ExecutionState sim;
  CheckedSynchronous scheduler;
  std::size_t run = 0;
  for (const std::size_t k : {256, 64, 2, 65, 1, 256, 1, 65}) {
    const core::Algorithm algorithm = kCursorAlgorithms[run % 2];
    const Instance instance = cursor_instance(algorithm, k);
    sim.reset(instance);
    const std::size_t before = scheduler.draws;
    if (run % 3 == 2) {
      scheduler.reset(k);
      while (sim.step(scheduler)) {
      }
    } else {
      ASSERT_TRUE(sim.run(scheduler).quiescent());
    }
    EXPECT_EQ(scheduler.draws - before, sim.actions_executed());
    EXPECT_EQ(scheduler.mismatches, 0u)
        << "run " << run << ' ' << label(algorithm, k) << ": first at draw "
        << scheduler.first_mismatch;
    ++run;
  }
}

TEST(SynchronousCursor, PickSequenceDigestIsPinned) {
  // Campaign digests fold moves, makespan, memory and action counts, which
  // these deterministic algorithms reach under every schedule; the pick
  // sequence itself is pinned here. Read from the front-scan draw.
  struct Pinned {
    core::Algorithm algorithm;
    std::size_t n, k, actions;
    std::uint64_t rounds, digest;
  };
  const Pinned pins[] = {
      {core::Algorithm::KnownKFull, 512, 65, 68122, 1528,
       0x75a7c934976127cbULL},
      {core::Algorithm::KnownKFull, 2048, 256, 1061804, 6135,
       0x033c81ea554b60ceULL},
      {core::Algorithm::KnownKLogMem, 512, 65, 70694, 2553,
       0xc987d4dd5050e059ULL},
      {core::Algorithm::KnownKLogMem, 2048, 256, 1124523, 10232,
       0x345023139f9c23d3ULL},
  };
  for (const Pinned& pin : pins) {
    Rng rng(pin.n + pin.k);
    core::RunSpec spec;
    spec.node_count = pin.n;
    spec.homes = gen::random_homes(pin.n, pin.k, rng);
    const Instance instance = core::make_instance(pin.algorithm, spec);
    ExecutionState sim;
    sim.reset(instance);
    PickLog<SynchronousScheduler> scheduler;
    ASSERT_TRUE(sim.run(scheduler).quiescent());
    std::uint64_t digest = 0;
    for (const AgentId id : scheduler.picks) fold64(digest, id);
    EXPECT_EQ(sim.actions_executed(), pin.actions)
        << label(pin.algorithm, pin.k);
    EXPECT_EQ(scheduler.rounds(), pin.rounds) << label(pin.algorithm, pin.k);
    EXPECT_EQ(digest, pin.digest)
        << label(pin.algorithm, pin.k) << std::hex << " digest " << digest;
  }
}

TEST(Random, DeterministicPerSeedAndCoversAgents) {
  RandomScheduler a(7), b(7);
  a.reset(5);
  b.reset(5);
  const std::vector<AgentId> all = {0, 1, 2, 3, 4};
  std::set<AgentId> seen;
  for (int i = 0; i < 200; ++i) {
    const AgentId pick = a.pick(all);
    EXPECT_EQ(pick, b.pick(all));
    seen.insert(pick);
  }
  EXPECT_EQ(seen.size(), 5u) << "every agent should be picked in 200 draws";
}

TEST(Synchronous, EveryEnabledAgentActsOncePerRound) {
  SynchronousScheduler scheduler;
  scheduler.reset(3);
  const std::vector<AgentId> all = {0, 1, 2};
  std::map<AgentId, int> counts;
  for (int i = 0; i < 9; ++i) ++counts[scheduler.pick(all)];
  for (const auto& [agent, count] : counts) {
    EXPECT_EQ(count, 3) << "agent " << agent;
  }
  EXPECT_EQ(scheduler.rounds(), 2u) << "two completed rounds after 9 picks";
}

TEST(Synchronous, AgentEnabledMidRoundActsInThatRound) {
  // A round closes only when every agent enabled at a pick has acted in
  // it, so an agent enabled mid-round joins the current round. Every
  // synchronous trace and campaign digest depends on this order.
  SynchronousScheduler scheduler;
  scheduler.reset(3);
  EXPECT_EQ(scheduler.pick({0, 1}), 0u);
  EXPECT_EQ(scheduler.pick({0, 1, 2}), 1u);
  EXPECT_EQ(scheduler.pick({0, 1, 2}), 2u);
  EXPECT_EQ(scheduler.rounds(), 0u) << "agent 2 acted in round 1";
  EXPECT_EQ(scheduler.pick({0, 1, 2}), 0u);
  EXPECT_EQ(scheduler.rounds(), 1u);
}

TEST(Priority, AlwaysPicksHighestPriorityEnabled) {
  PriorityScheduler scheduler({2, 0, 1});
  scheduler.reset(3);
  EXPECT_EQ(scheduler.pick({0, 1, 2}), 2u);
  EXPECT_EQ(scheduler.pick({0, 1}), 0u);
  EXPECT_EQ(scheduler.pick({1}), 1u);
}

TEST(Priority, UnlistedAgentsComeLastInIdOrder) {
  PriorityScheduler scheduler({3});
  scheduler.reset(4);
  EXPECT_EQ(scheduler.pick({0, 1, 2, 3}), 3u);
  EXPECT_EQ(scheduler.pick({0, 1, 2}), 0u);
}

TEST(Burst, SticksWithTheCurrentAgentWhileEnabled) {
  BurstScheduler scheduler(3);
  scheduler.reset(3);
  const AgentId first = scheduler.pick({0, 1, 2});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(scheduler.pick({0, 1, 2}), first);
  }
  // Remove `first` from the enabled set: it must switch.
  std::vector<AgentId> rest;
  for (AgentId id = 0; id < 3; ++id) {
    if (id != first) rest.push_back(id);
  }
  const AgentId second = scheduler.pick(rest);
  EXPECT_NE(second, first);
}

TEST(Factory, ProducesEveryKind) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto scheduler = make_scheduler(kind, 1, 4);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->name(), to_string(kind));
  }
}

TEST(AllSchedulers, DriveAMultiAgentWorkloadToQuiescence) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    Simulator sim(12, {0, 3, 7, 9},
                  [](AgentId) { return std::make_unique<WalkerAgent>(25); });
    const auto scheduler = make_scheduler(kind, 11, sim.agent_count());
    const RunResult result = sim.run(*scheduler);
    EXPECT_TRUE(result.quiescent()) << to_string(kind);
    EXPECT_TRUE(sim.all_halted()) << to_string(kind);
    EXPECT_EQ(sim.metrics().total_moves(), 100u) << to_string(kind);
  }
}

TEST(AllSchedulers, NeverPickADisabledAgent) {
  // Run a mixed workload and assert (via step()) that execution only ever
  // touches enabled agents — the simulator throws on a non-head pick.
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    Simulator sim(10, {0, 2, 4, 8}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
      if (id % 2 == 0) return std::make_unique<WalkerAgent>(17);
      return std::make_unique<SitterAgent>(5);
    });
    const auto scheduler = make_scheduler(kind, 23, sim.agent_count());
    scheduler->reset(sim.agent_count());
    EXPECT_NO_THROW({
      while (sim.step(*scheduler)) {
      }
    }) << to_string(kind);
  }
}

}  // namespace
}  // namespace udring::sim
