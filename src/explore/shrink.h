// udring/explore/shrink.h
//
// Trace minimization by delta debugging. Given a failing ScheduleTrace, the
// shrinker searches for a shorter, simpler trace that still fails:
//
//   1. ddmin chunk deletion: repeatedly try removing contiguous chunks of
//      the choice sequence at doubling granularity, keeping any candidate
//      whose replay still fails;
//   2. pointwise simplification: try replacing each surviving choice with 0
//      (the replay fallback value), so the minimized trace reads as "default
//      schedule except at these decisive points".
//
// Deleting entries keeps the candidate meaningful because the replay
// scheduler pads an exhausted trace with choice 0 and reduces every entry
// modulo the enabled count — any choice subsequence is a complete schedule.
// "Still fails" means replay_trace reports a failure whose reason starts
// with the same prefix class ("invariant:", "goal:", or the action-limit
// text), so shrinking cannot drift from, say, a uniformity violation to an
// unrelated livelock. Every accepted candidate is replay-verified, and the
// result's digest and note are refreshed from its own replay, so the shrunk
// trace is a self-checking artifact like any recorded one.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "explore/fuzz.h"
#include "explore/trace.h"

namespace udring::explore {

struct ShrinkOptions {
  /// Hard cap on replays (each candidate costs one simulator run).
  std::size_t max_replays = 4000;
  /// Forwarded to replay_trace (0 = the cap the trace was recorded under,
  /// falling back to the simulator's auto limit for uncapped traces).
  std::size_t max_actions = 0;
};

struct ShrinkResult {
  ScheduleTrace trace;        ///< minimal failing trace (digest/note refreshed)
  std::string reason;         ///< the failure the minimal trace reproduces
  std::size_t replays = 0;    ///< simulator runs spent
  std::size_t original_size = 0;  ///< choices before shrinking
};

/// Minimizes `failing` (which must fail under replay_trace; throws
/// std::invalid_argument otherwise).
[[nodiscard]] ShrinkResult shrink_trace(const ScheduleTrace& failing,
                                        const ShrinkOptions& options = {});

/// shrink_trace() of every failure sample's trace, run across `workers`
/// threads (util::resolve_workers semantics; 0 = all cores). Each shrink is
/// independent and deterministic, and result i is sample i's, so the
/// results are the same at any worker count.
[[nodiscard]] std::vector<ShrinkResult> shrink_failures(
    const std::vector<FuzzFailure>& samples, std::size_t workers,
    const ShrinkOptions& options = {});

}  // namespace udring::explore
