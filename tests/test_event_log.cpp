// Tests for sim/event_log.h: recording, filtering, formatting, the trace's
// consistency with the metrics, and the lane digester's agreement with
// EventLog::digest().

#include "sim/event_log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::sim {
namespace {

using test::MessengerAgent;
using test::SuspenderAgent;
using test::WalkerAgent;

TEST(EventLog, DisabledByDefaultRecordsNothing) {
  EventLog log;
  log.record({1, EventKind::Arrive, 0, 0, 1, 0});
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, EnabledRecordsInOrder) {
  EventLog log;
  log.set_enabled(true);
  log.record({1, EventKind::Arrive, 0, 3, 1, 0});
  log.record({2, EventKind::Depart, 0, 3, 1, 0});
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].kind, EventKind::Arrive);
  EXPECT_EQ(log.events()[1].kind, EventKind::Depart);
  log.clear();
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, FiltersByKindAndAgent) {
  EventLog log;
  log.set_enabled(true);
  log.record({1, EventKind::Arrive, 0, 0, 1, 0});
  log.record({2, EventKind::Arrive, 1, 4, 1, 0});
  log.record({3, EventKind::TokenDrop, 0, 0, 1, 0});
  EXPECT_EQ(log.of_kind(EventKind::Arrive).size(), 2u);
  EXPECT_EQ(log.of_kind(EventKind::Halt).size(), 0u);
  EXPECT_EQ(log.of_agent(0).size(), 2u);
  EXPECT_EQ(log.of_agent(1).size(), 1u);
}

TEST(EventLog, KindNamesAreDistinct) {
  std::set<std::string_view> names;
  for (const EventKind kind :
       {EventKind::Arrive, EventKind::Depart, EventKind::StayPut,
        EventKind::EnterWait, EventKind::EnterSuspend, EventKind::Halt,
        EventKind::TokenDrop, EventKind::Broadcast, EventKind::Wake}) {
    names.insert(to_string(kind));
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(EventLog, StreamFormatIsReadable) {
  std::ostringstream out;
  out << Event{7, EventKind::Broadcast, 2, 5, 11, 3};
  const std::string text = out.str();
  EXPECT_NE(text.find("#7"), std::string::npos);
  EXPECT_NE(text.find("agent 2"), std::string::npos);
  EXPECT_NE(text.find("broadcast"), std::string::npos);
  EXPECT_NE(text.find("@node 5"), std::string::npos);
  EXPECT_NE(text.find("(3)"), std::string::npos) << "receiver count shown";
}

TEST(EventLog, TraceIsConsistentWithMetrics) {
  SimOptions options;
  options.record_events = true;
  Simulator sim(10, {0, 5},
                [](AgentId) { return std::make_unique<WalkerAgent>(7, true); },
                options);
  RoundRobinScheduler scheduler;
  (void)sim.run(scheduler);

  // Departures per agent == recorded moves; arrivals == departures + the
  // initial buffer arrival; tokens == k; halts == k.
  for (AgentId id = 0; id < 2; ++id) {
    std::size_t departs = 0, arrives = 0;
    for (const Event& event : sim.log().of_agent(id)) {
      if (event.kind == EventKind::Depart) ++departs;
      if (event.kind == EventKind::Arrive) ++arrives;
    }
    EXPECT_EQ(departs, sim.metrics().agent(id).moves);
    EXPECT_EQ(arrives, departs + 1);
  }
  EXPECT_EQ(sim.log().of_kind(EventKind::TokenDrop).size(), 2u);
  EXPECT_EQ(sim.log().of_kind(EventKind::Halt).size(), 2u);
}

TEST(EventLog, BroadcastAndWakeAppearInCausalOrder) {
  SimOptions options;
  options.record_events = true;
  Simulator sim(6, {0, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
    if (id == 0) return std::make_unique<SuspenderAgent>();
    return std::make_unique<MessengerAgent>(3, "hi");
  }, options);
  RoundRobinScheduler scheduler;
  (void)sim.run(scheduler);

  const auto broadcasts = sim.log().of_kind(EventKind::Broadcast);
  const auto wakes = sim.log().of_kind(EventKind::Wake);
  ASSERT_EQ(broadcasts.size(), 1u);
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_LE(broadcasts[0].action_index, wakes[0].action_index);
  EXPECT_EQ(wakes[0].agent, 0u);
  EXPECT_EQ(wakes[0].detail, 1u) << "sender id recorded";
}

TEST(EventLogDigest, SensitiveToEveryFieldAndOrder) {
  // The digest is the record/replay equality check: identical logs agree,
  // and any reordering or single-field change must be visible.
  EventLog a, b;
  a.set_enabled(true);
  b.set_enabled(true);
  const Event first{1, EventKind::Arrive, 0, 3, 1, 0};
  const Event second{2, EventKind::TokenDrop, 1, 5, 2, 0};
  a.record(first);
  a.record(second);
  b.record(first);
  b.record(second);
  EXPECT_EQ(a.digest(), b.digest());

  EventLog swapped;
  swapped.set_enabled(true);
  swapped.record(second);
  swapped.record(first);
  EXPECT_NE(a.digest(), swapped.digest());

  EventLog tweaked;
  tweaked.set_enabled(true);
  tweaked.record(first);
  Event changed = second;
  changed.causal_ts += 1;
  tweaked.record(changed);
  EXPECT_NE(a.digest(), tweaked.digest());

  EXPECT_NE(EventLog{}.digest(), a.digest());
  EXPECT_EQ(EventLog{}.digest(), EventLog{}.digest());
}

// ---- EventLogDigester -------------------------------------------------------

/// A log of `size` events whose every field is drawn from `rng`.
EventLog random_log(std::size_t size, Rng& rng) {
  EventLog log;
  log.set_enabled(true);
  for (std::size_t i = 0; i < size; ++i) {
    log.record({rng(), static_cast<EventKind>(rng.index(9)), rng.index(64),
                rng.index(4096), rng(), rng.index(8)});
  }
  return log;
}

/// Digests `sizes.size()` random logs through one digester (submitting in
/// order, flushing at the end) and checks each against EventLog::digest().
void expect_lanes_match_digest(const std::vector<std::size_t>& sizes,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EventLog> logs;
  std::vector<std::uint64_t> want;
  for (const std::size_t size : sizes) {
    logs.push_back(random_log(size, rng));
    want.push_back(logs.back().digest());
  }
  EventLogDigester lanes;
  std::vector<std::uint64_t> got(sizes.size(), 0);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    lanes.submit(logs[i], &got[i]);
    EXPECT_TRUE(logs[i].events().empty()) << "submit takes the events";
  }
  lanes.flush();
  EXPECT_EQ(got, want);
}

TEST(EventLogDigester, EmptyAndOneEventLogs) {
  expect_lanes_match_digest({0}, 1);
  expect_lanes_match_digest({1}, 2);
  expect_lanes_match_digest({0, 1, 0, 1, 0, 1}, 3);
}

TEST(EventLogDigester, FlushWithFewerPendingLogsThanLanes) {
  static_assert(EventLogDigester::kLanes == 4);
  expect_lanes_match_digest({5, 17, 3}, 4);
  expect_lanes_match_digest({40, 2}, 5);
  expect_lanes_match_digest({}, 6);
}

TEST(EventLogDigester, RaggedLogsMoreThanLanes) {
  // Lanes refill as their logs end, so short logs finish while long ones
  // are still folding; every mix must still match the serial digest.
  Rng rng(7);
  for (int mix = 0; mix < 20; ++mix) {
    std::vector<std::size_t> sizes(1 + rng.index(30));
    for (std::size_t& size : sizes) {
      size = rng.index(4) == 0 ? rng.index(4) : rng.index(1001);
    }
    expect_lanes_match_digest(sizes, 100 + static_cast<std::uint64_t>(mix));
  }
  expect_lanes_match_digest({1000, 1, 1, 1, 1, 1, 1, 999, 0, 500, 2, 1000}, 8);
}

TEST(EventLogDigester, SubmittedLogKeepsRecordingIntoARecycledBuffer) {
  // The log gets back a cleared buffer of an earlier log: reusing it for the
  // next run must record from empty and digest correctly.
  Rng rng(9);
  EventLog log;
  log.set_enabled(true);
  EventLogDigester lanes;
  std::vector<std::uint64_t> got(12, 0);
  std::vector<std::uint64_t> want;
  for (std::size_t run = 0; run < got.size(); ++run) {
    const std::size_t size = 1 + rng.index(200);
    for (std::size_t i = 0; i < size; ++i) {
      log.record({i, EventKind::StayPut, rng.index(8), rng.index(32), i, 0});
    }
    ASSERT_EQ(log.events().size(), size);
    want.push_back(log.digest());
    lanes.submit(log, &got[run]);
  }
  lanes.flush();
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace udring::sim
