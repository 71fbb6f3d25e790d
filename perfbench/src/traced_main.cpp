// perfbench/src/traced_main.cpp
//
// The traced benchmark binary: per-layer metrics of one workload.
//
//   perfbench_traced --workload campaign-small --seed 1 --seconds 30
//       --trace-out .bench_build/perfbench/traces/campaign-small.tsv
//
// Alternates an untraced run of each part of the workload's job with a
// traced re-drive of the same part (redrive.h) until --seconds are used, at
// least once. Reports the last re-drive's per-layer metrics, and
// trace.overhead_ratio: the fastest traced job over the fastest untraced
// one. Writes the last re-drive's spans to --trace-out.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "redrive.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int run(const Args& args) {
  const Clock::time_point start = Clock::now();
  const Workload workload = workload_from_name(args.workload);
  const Inputs inputs = prepare(workload, args.seed, args.smoke);
  const std::size_t parts = part_count(workload, inputs);

  Result result;
  SpanRecorder recorder;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<std::pair<std::string, std::string>> first_outputs;
  std::map<std::string, double> first_counts;
  std::map<std::string, double> values;
  std::vector<TracedCheck> checks;
  std::map<std::string, std::size_t> failed_checks;  // by check name
  std::size_t disagreements = 0;
  for (;;) {
    recorder.clear();
    TracedRun traced;
    std::vector<std::pair<std::string, std::string>> outputs;
    double untraced_wall = 0;
    for (std::size_t part = 0; part < parts; ++part) {
      const Clock::time_point t0 = Clock::now();
      const Outcome untraced = run_part(workload, inputs, part);
      untraced_wall += seconds_since(t0);
      result.attempted += untraced.operations;
      result.failed += untraced.failed_operations;
      outputs.insert(outputs.end(), untraced.outputs.begin(), untraced.outputs.end());
      redrive_part(workload, inputs, part, untraced, recorder, traced);
    }
    untraced_walls.push_back(untraced_wall);
    traced_walls.push_back(traced.wall_s);
    result.attempted += traced.operations;
    result.failed += traced.failed_operations;
    for (const TracedCheck& c : traced.checks) {
      if (!c.ok) ++failed_checks[c.name];
    }
    values = layer_values(workload, inputs, traced, recorder);
    checks = traced.checks;

    // Exact counters and outputs must not move between repetitions.
    std::map<std::string, double> counts;
    for (const LayerMetric& m : layer_metrics()) {
      if (std::string(m.unit) == "count") counts[m.name] = values[m.name];
    }
    if (traced_walls.size() == 1) {
      first_outputs = outputs;
      first_counts = counts;
    } else if (outputs != first_outputs || counts != first_counts) {
      ++disagreements;
    }
    if (seconds_since(start) + untraced_wall + traced.wall_s > args.seconds) break;
  }

  if (!args.trace_out.empty()) {
    const std::filesystem::path path(args.trace_out);
    if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
    recorder.write_tsv(args.trace_out);
    result.note("spans written to " + args.trace_out);
  }
  std::ostringstream times;
  times << "repetitions " << traced_walls.size() << ", untraced/traced seconds:";
  for (std::size_t i = 0; i < traced_walls.size(); ++i) {
    times << ' ' << untraced_walls[i] << '/' << traced_walls[i];
  }
  result.note(times.str());
  for (const TracedCheck& c : checks) {
    const std::size_t failures = failed_checks[c.name];
    result.check(c.name, failures == 0,
                 c.detail + (c.detail.empty() ? "" : "; ") + "failed in " +
                     std::to_string(failures) + " of " +
                     std::to_string(traced_walls.size()) + " repetitions");
  }
  result.check("repetitions reproduce the first one's outputs and counts",
               disagreements == 0,
               std::to_string(disagreements) + " disagreeing repetition(s)");
  for (const auto& [key, value] : first_outputs) result.output(key, value);

  values["trace.overhead_ratio"] =
      *std::min_element(traced_walls.begin(), traced_walls.end()) /
      *std::min_element(untraced_walls.begin(), untraced_walls.end());
  for (const LayerMetric& m : layer_metrics()) {
    const auto found = values.find(m.name);
    result.metric(m.name, found == values.end() ? 0.0 : found->second, m.unit);
  }
  result.print(std::cout, args.workload, args.seed, args.smoke, true);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  require_release_build();
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench_traced: " << error.what() << '\n';
    return 2;
  }
}
