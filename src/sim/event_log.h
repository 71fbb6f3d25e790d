// udring/sim/event_log.h
//
// Optional structured trace of every atomic action. Off by default (the
// property sweeps run millions of actions); tests turn it on to assert
// model invariants (FIFO link discipline, home-node-first rule, atomicity)
// and examples use it to narrate executions.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "sim/types.h"

namespace udring::sim {

enum class EventKind : std::uint8_t {
  Arrive,        ///< agent left a link queue and arrived at `node`
  Depart,        ///< agent left `node` over the forward link
  StayPut,       ///< agent acted and stayed schedulable at `node`
  EnterWait,     ///< agent parked waiting for a message at `node`
  EnterSuspend,  ///< agent entered the Definition-2 suspended state
  Halt,          ///< agent's program returned (Definition-1 halt state)
  TokenDrop,     ///< agent released a token at `node`
  Broadcast,     ///< agent broadcast a message; `detail` = receiver count
  Wake,          ///< parked agent became schedulable; `detail` = sender id
};

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;

struct Event {
  std::size_t action_index = 0;  ///< global atomic-action counter
  EventKind kind = EventKind::Arrive;
  AgentId agent = 0;
  NodeId node = 0;
  std::uint64_t causal_ts = 0;  ///< ideal-time stamp of the enclosing action
  std::size_t detail = 0;       ///< kind-specific extra (see EventKind)

  friend bool operator==(const Event&, const Event&) = default;
};

std::ostream& operator<<(std::ostream& out, const Event& event);

/// Append-only event container with convenience filters used by tests.
class EventLog {
 public:
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void record(Event event) {
    if (enabled_) events_.push_back(event);
  }

  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }

  /// Order-sensitive 64-bit digest of every recorded event. Two executions
  /// with equal digests performed the same actions in the same order with
  /// the same causal stamps — this is the record/replay equality check
  /// (src/explore). Platform-stable: integers folded through splitmix64.
  /// EventLogDigester computes the same value for many logs at once.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// All events of one kind, in order.
  [[nodiscard]] std::vector<Event> of_kind(EventKind kind) const;

  /// All events for one agent, in order.
  [[nodiscard]] std::vector<Event> of_agent(AgentId agent) const;

  void clear() noexcept { events_.clear(); }

  /// Drops every event past the first `size` (ExecutionState::undo).
  void truncate(std::size_t size) noexcept {
    if (size < events_.size()) {
      events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(size),
                    events_.end());
    }
  }

 private:
  friend class EventLogDigester;

  bool enabled_ = false;
  std::vector<Event> events_;
};

/// EventLog::digest() for a stream of finished logs, kLanes at a time.
/// digest() is one fold64 chain, so it runs at the multiplier's latency; the
/// digester keeps up to kLanes chains in flight and folds them in lockstep,
/// one event of each per step. submit() takes a log's events by swap — the
/// log gets back a cleared buffer of an earlier log, so capacity recycles —
/// and writes its digest to `*out` once its lane finishes. With every lane
/// busy, submit() first folds until the shortest log ends and gives the
/// freed lane the new log, so no lane waits for a longer one. flush() writes
/// every pending digest. The result for each log equals its digest(): both
/// fold the same words per event.
class EventLogDigester {
 public:
  static constexpr std::size_t kLanes = 4;

  /// Queues `log`'s events for digesting and leaves `log` empty. `*out` is
  /// written by a later submit() or flush() and must stay valid until then.
  void submit(EventLog& log, std::uint64_t* out);

  /// Digests every pending log.
  void flush();

 private:
  struct Lane {
    std::vector<Event> events;
    std::size_t next = 0;         ///< first event not folded yet
    std::uint64_t state = 0;
    std::uint64_t* out = nullptr;  ///< null while the lane is free
  };

  /// With every lane busy: folds them all in lockstep until the shortest
  /// log ends, then finishes the lanes whose logs ended.
  void fold_until_a_lane_frees();
  void finish(Lane& lane);

  std::array<Lane, kLanes> lanes_;
};

}  // namespace udring::sim
