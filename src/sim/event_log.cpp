#include "sim/event_log.h"

#include <algorithm>
#include <array>
#include <ostream>

#include "util/rng.h"

namespace udring::sim {

std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::Arrive: return "arrive";
    case EventKind::Depart: return "depart";
    case EventKind::StayPut: return "stay";
    case EventKind::EnterWait: return "wait";
    case EventKind::EnterSuspend: return "suspend";
    case EventKind::Halt: return "halt";
    case EventKind::TokenDrop: return "token";
    case EventKind::Broadcast: return "broadcast";
    case EventKind::Wake: return "wake";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& out, const Event& event) {
  out << '#' << event.action_index << " t=" << event.causal_ts << " agent "
      << event.agent << ' ' << to_string(event.kind) << " @node " << event.node;
  if (event.kind == EventKind::Broadcast || event.kind == EventKind::Wake) {
    out << " (" << event.detail << ')';
  }
  return out;
}

namespace {

/// A log digest's state before its first event.
std::uint64_t digest_start(std::size_t event_count) noexcept {
  // Domain salt ("event feed" in hex-ish) keeps this digest space separate
  // from the campaign-result and substream domains.
  std::uint64_t state = 0xe7e27feed1d16e57ULL;
  fold64(state, event_count);
  return state;
}

/// The words a digest folds per event, in order: the one definition
/// EventLog::digest() and the digester lanes share.
constexpr std::size_t kEventWords = 6;
std::array<std::uint64_t, kEventWords> event_words(
    const Event& event) noexcept {
  return {event.action_index, static_cast<std::uint64_t>(event.kind),
          event.agent,        event.node,
          event.causal_ts,    event.detail};
}

void fold_event(std::uint64_t& state, const Event& event) noexcept {
  for (const std::uint64_t word : event_words(event)) fold64(state, word);
}

}  // namespace

std::uint64_t EventLog::digest() const noexcept {
  std::uint64_t state = digest_start(events_.size());
  for (const Event& event : events_) fold_event(state, event);
  return state;
}

void EventLogDigester::submit(EventLog& log, std::uint64_t* out) {
  const auto is_free = [](const Lane& lane) { return lane.out == nullptr; };
  auto lane = std::find_if(lanes_.begin(), lanes_.end(), is_free);
  if (lane == lanes_.end()) {
    fold_until_a_lane_frees();
    lane = std::find_if(lanes_.begin(), lanes_.end(), is_free);
  }
  lane->events.swap(log.events_);
  lane->next = 0;
  lane->state = digest_start(lane->events.size());
  lane->out = out;
}

void EventLogDigester::fold_until_a_lane_frees() {
  std::size_t steps = lanes_[0].events.size() - lanes_[0].next;
  for (const Lane& lane : lanes_) {
    steps = std::min(steps, lane.events.size() - lane.next);
  }
  std::array<const Event*, kLanes> at{};
  std::array<std::uint64_t, kLanes> state{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    at[l] = lanes_[l].events.data() + lanes_[l].next;
    state[l] = lanes_[l].state;
  }
  // Word-major across the lanes: the kLanes folds of one word are
  // independent, so they overlap instead of waiting on each other.
  for (std::size_t i = 0; i < steps; ++i) {
    std::array<std::array<std::uint64_t, kEventWords>, kLanes> words;
    for (std::size_t l = 0; l < kLanes; ++l) words[l] = event_words(at[l][i]);
    for (std::size_t w = 0; w < kEventWords; ++w) {
      for (std::size_t l = 0; l < kLanes; ++l) fold64(state[l], words[l][w]);
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    Lane& lane = lanes_[l];
    lane.state = state[l];
    lane.next += steps;
    if (lane.next == lane.events.size()) finish(lane);
  }
}

void EventLogDigester::finish(Lane& lane) {
  *lane.out = lane.state;
  lane.out = nullptr;
  lane.events.clear();
}

void EventLogDigester::flush() {
  for (Lane& lane : lanes_) {
    if (lane.out == nullptr) continue;
    for (; lane.next < lane.events.size(); ++lane.next) {
      fold_event(lane.state, lane.events[lane.next]);
    }
    finish(lane);
  }
}

std::vector<Event> EventLog::of_kind(EventKind kind) const {
  std::vector<Event> result;
  for (const Event& event : events_) {
    if (event.kind == kind) result.push_back(event);
  }
  return result;
}

std::vector<Event> EventLog::of_agent(AgentId agent) const {
  std::vector<Event> result;
  for (const Event& event : events_) {
    if (event.agent == agent) result.push_back(event);
  }
  return result;
}

}  // namespace udring::sim
