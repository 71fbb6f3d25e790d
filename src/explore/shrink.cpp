#include "explore/shrink.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/parallel.h"

namespace udring::explore {

namespace {

/// The failure class a shrink must preserve: the reason up to and including
/// the first ':' ("invariant:", "goal:"), or the whole text otherwise (the
/// action-limit message).
[[nodiscard]] std::string failure_class(std::string_view reason) {
  const std::size_t colon = reason.find(':');
  if (colon == std::string_view::npos) return std::string(reason);
  return std::string(reason.substr(0, colon + 1));
}

}  // namespace

ShrinkResult shrink_trace(const ScheduleTrace& failing,
                          const ShrinkOptions& options) {
  ShrinkResult result;
  result.original_size = failing.choices.size();

  std::size_t replays = 0;
  const auto replay = [&](const ScheduleTrace& candidate) {
    ++replays;
    return replay_trace(candidate, options.max_actions);
  };

  const ReplayOutcome original = replay(failing);
  if (!original.failed) {
    throw std::invalid_argument(
        "shrink_trace: trace does not fail under replay");
  }
  const std::string wanted = failure_class(original.reason);
  const auto still_fails = [&](const ScheduleTrace& candidate) {
    if (replays >= options.max_replays) return false;
    const ReplayOutcome outcome = replay(candidate);
    return outcome.failed && failure_class(outcome.reason) == wanted;
  };

  ScheduleTrace best = failing;

  // ---- ddmin: chunk deletion at doubling granularity ------------------------
  std::size_t chunk = std::max<std::size_t>(1, best.choices.size() / 2);
  while (chunk >= 1 && replays < options.max_replays) {
    bool removed_any = false;
    for (std::size_t start = 0;
         start < best.choices.size() && replays < options.max_replays;) {
      ScheduleTrace candidate = best;
      const std::size_t end = std::min(start + chunk, candidate.choices.size());
      candidate.choices.erase(
          candidate.choices.begin() + static_cast<std::ptrdiff_t>(start),
          candidate.choices.begin() + static_cast<std::ptrdiff_t>(end));
      if (still_fails(candidate)) {
        best = std::move(candidate);
        removed_any = true;
        // keep `start`: the next chunk slid into this position
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !removed_any) break;
    if (!removed_any) chunk = std::max<std::size_t>(1, chunk / 2);
  }

  // ---- pointwise simplification: zero every surviving choice ----------------
  for (std::size_t i = 0;
       i < best.choices.size() && replays < options.max_replays; ++i) {
    if (best.choices[i] == 0) continue;
    ScheduleTrace candidate = best;
    candidate.choices[i] = 0;
    if (still_fails(candidate)) best = std::move(candidate);
  }

  // Trailing zeros are the replay fallback anyway; drop them.
  while (!best.choices.empty() && best.choices.back() == 0) {
    ScheduleTrace candidate = best;
    candidate.choices.pop_back();
    if (still_fails(candidate)) {
      best = std::move(candidate);
    } else {
      break;
    }
  }

  // Refresh the artifact so the shrunk trace is self-checking.
  const ReplayOutcome final_outcome = replay(best);
  best.expected_digest = final_outcome.digest;
  best.note = final_outcome.reason;
  result.reason = final_outcome.reason;
  result.trace = std::move(best);
  result.replays = replays;
  return result;
}

std::vector<ShrinkResult> shrink_failures(const std::vector<FuzzFailure>& samples,
                                          std::size_t workers,
                                          const ShrinkOptions& options) {
  std::vector<ShrinkResult> results(samples.size());
  parallel_for_workers(samples.size(), workers,
                       [&](std::size_t /*worker*/, std::size_t i) {
                         results[i] = shrink_trace(samples[i].trace, options);
                       });
  return results;
}

}  // namespace udring::explore
