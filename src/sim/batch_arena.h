// udring/sim/batch_arena.h
//
// BatchArena — the lane-batched execution engine for small-instance
// campaigns.
//
// One arena owns B *lanes*. Each lane is a pooled ExecutionState (the same
// allocation-reusing arena a campaign worker has always owned — now B of
// them) plus a row of hot per-lane control words kept in structure-of-arrays
// columns: liveness, the attached scheduler, its kind (for the devirtualized
// Scheduler::draw_batch), and the caller's ticket. The sweep loop walks the
// live lanes round-robin, advancing each by a bounded chunk of atomic
// actions per visit (ExecutionState::run_chunk — one scheduler draw per
// action, drawn from that lane's own scheduler), so B independent runs make
// progress in lockstep without any cross-lane synchronization.
//
// Retirement is per-lane: the moment a lane's run completes (quiescent or
// action limit), the retire callback consumes it and the feed callback
// refills just that lane from the scenario stream — no barrier waits for the
// other lanes. A campaign's tail therefore drains at lane granularity, not
// batch granularity.
//
// Determinism: lanes do not interact. A lane's action sequence depends only
// on its instance, its scheduler (reseeded per scenario by the caller) and
// the enabled-set evolution of its own state — exactly the inputs of the
// scalar ExecutionState::run path — so per-scenario results are
// byte-identical to the scalar engine at ANY lane count and chunk size, and
// the campaign layer's commutative folds make the aggregate digest identical
// too (tests/test_batch.cpp pins this).

#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "sim/execution_state.h"
#include "sim/scheduler.h"

namespace udring::sim {

class BatchArena {
 public:
  /// Refills `lane` with the next unit of work, calling load(lane, …), and
  /// returns true — or returns false when the stream is exhausted (the lane
  /// goes idle). A feed that throws is treated as a failed load: the
  /// exception propagates out of run() (the caller's feed should catch
  /// per-scenario build errors itself and account them before returning).
  using Feed = std::function<bool(std::size_t lane)>;

  /// Consumes a finished lane: `ticket` is the value passed to load(), and
  /// state(lane) still holds the final configuration.
  using Retire =
      std::function<void(std::size_t lane, std::uint64_t ticket,
                         const RunResult& result)>;

  /// Consumes a lane whose run threw (an algorithm bug surfacing through
  /// AgentProgram::resume, exactly what the scalar path catches around
  /// ExecutionState::run). The lane is refilled afterwards like a retired
  /// one.
  using OnError = std::function<void(std::size_t lane, std::uint64_t ticket,
                                     std::exception_ptr error)>;

  /// Actions one lane advances per sweep visit. Large enough to amortize the
  /// lane-switch (chunk dispatch, control-word reads) to noise, small enough
  /// that a finished lane is retired and refilled promptly.
  static constexpr std::size_t kChunkActions = 4096;

  explicit BatchArena(std::size_t lanes);

  [[nodiscard]] std::size_t lanes() const noexcept { return states_.size(); }

  /// The lane's pooled simulation state (callers prepare/inspect through it;
  /// after retire it holds the finished configuration until the next load).
  [[nodiscard]] ExecutionState& state(std::size_t lane) {
    return *states_[lane];
  }

  /// Binds `lane` to a run: resets the lane state onto `instance` and
  /// attaches + resets `scheduler` (which the caller has already reseeded
  /// for this scenario — the same attach/reset/reseed sequence the scalar
  /// pooled path performs). `kind` selects the devirtualized draw;
  /// `scheduler` must be of that kind or a kind outside the enum (explore
  /// adversaries), for which draw_batch falls back to the virtual pick.
  void load(std::size_t lane, const Instance& instance, Scheduler& scheduler,
            SchedulerKind kind, std::uint64_t ticket);

  /// Fills every lane from `feed`, then sweeps until the stream and all
  /// lanes are drained. Every completed run is handed to `retire`; a run
  /// that throws is handed to `on_error` (pass nullptr to rethrow instead).
  void run(const Feed& feed, const Retire& retire, const OnError& on_error);

 private:
  std::vector<std::unique_ptr<ExecutionState>> states_;
  // Hot per-lane control words, one SoA column each (indexed by lane).
  std::vector<std::uint8_t> live_;
  std::vector<Scheduler*> scheduler_;
  std::vector<SchedulerKind> kind_;
  std::vector<std::uint64_t> ticket_;
};

}  // namespace udring::sim
