// perfbench/src/redrive.h
//
// The traced re-drive: the same work as a workload's untraced job, driven
// through the public functions of each layer (exp, core, sim, mc, explore)
// with spans around every call, plus the exact counters each layer exposes.
// The re-drive must reproduce the untraced job's results exactly; every
// disagreement is a failed check.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric the traced binary reports, in report order. A
/// metric a workload does not exercise reads 0.
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

struct TracedCheck {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Raw totals of one traced re-drive of a whole job, summed over its parts.
struct TracedRun {
  double wall_s = 0;  ///< the parts' root spans
  std::uint64_t operations = 0;
  std::uint64_t failed_operations = 0;  ///< failed scenarios/instances/iterations
  std::uint64_t allocations = 0;        ///< operator new calls inside the root spans
  std::uint64_t actions = 0;            ///< simulator actions
  std::uint64_t sched_draws = 0;        ///< campaign-*: timed scheduler draws
  mc::McStats mc;                       ///< mc-verify: summed counters
  std::vector<double> iteration_us;     ///< fuzz-checked: each iteration
  std::int64_t checked_ns = 0;          ///< fuzz-checked: sampled iterations
  std::int64_t unchecked_ns = 0;        ///< ... and their unchecked re-runs
  std::vector<TracedCheck> checks;
};

/// Re-drives part `part` of `workload`'s job, recording spans into
/// `recorder`, adding to `run`, and checking the results against
/// `untraced`, an untraced run of the same part.
void redrive_part(Workload workload, const Inputs& inputs, std::size_t part,
                  const Outcome& untraced, SpanRecorder& recorder,
                  TracedRun& run);

/// The per-layer metric values of a finished re-drive (every part done),
/// from its totals and the self times of the recorded spans. Keys are
/// layer_metrics() names; trace.overhead_ratio is the caller's.
[[nodiscard]] std::map<std::string, double> layer_values(
    Workload workload, const Inputs& inputs, const TracedRun& run,
    const SpanRecorder& recorder);

}  // namespace perfbench
