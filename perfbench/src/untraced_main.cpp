// perfbench/src/untraced_main.cpp
//
// The untraced benchmark binary: end-to-end metrics of one workload.
//
//   perfbench --workload campaign-small --seed 1 --seconds 30
//
// Repeats the workload's fixed job until --seconds are used (at least
// kMinRepetitions times), with a batch of setups timed before each job. Each
// repetition times the job's units (workloads.h) one by one. wall_s is the
// sum over the units of each unit's fastest time, setup_s the fastest setup
// batch mean; peak_rss_mib is the process's peak RSS. Fastest, not median,
// and short units, because this runs on shared machines whose cores switch
// many times a second between a fast speed and one ~1.6 times slower, in
// shares that drift over minutes (LAYERS.md): a unit of a few milliseconds
// fits in a fast stretch, so its fastest time is the fast speed's. After the
// first repetition, each repetition runs on the next allowed CPU. Every
// repetition must reproduce the first one's digests and verdicts.

#include <algorithm>
#include <iostream>
#include <sstream>

#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr std::size_t kMinRepetitions = 3;
constexpr std::size_t kMinSetupSamples = 15;

int run(const Args& args) {
  const Clock::time_point start = Clock::now();
  const Workload workload = workload_from_name(args.workload);

  Inputs inputs;
  SetupTimer setup([&] { inputs = prepare(workload, args.seed, args.smoke); });

  Result result;
  const std::size_t units = unit_count(workload, inputs);
  std::vector<std::vector<double>> unit_walls(units);
  std::vector<double> walls;
  std::vector<std::pair<std::string, std::string>> first_outputs;
  std::size_t disagreements = 0;
  double peak_rss = 0;
  const std::vector<int> cpus = allowed_cpus();
  for (;;) {
    setup.sample();
    if (!walls.empty()) run_on_cpu(cpus[walls.size() % cpus.size()]);
    std::vector<UnitRun> runs;
    runs.reserve(units);
    double wall = 0;
    for (std::size_t unit = 0; unit < units; ++unit) {
      const Clock::time_point t0 = Clock::now();
      runs.push_back(run_unit(workload, inputs, unit));
      unit_walls[unit].push_back(seconds_since(t0));
      wall += unit_walls[unit].back();
    }
    walls.push_back(wall);
    std::vector<std::pair<std::string, std::string>> outputs;
    for (const Outcome& part : finish_job(workload, inputs, std::move(runs))) {
      result.attempted += part.operations;
      result.failed += part.failed_operations;
      outputs.insert(outputs.end(), part.outputs.begin(), part.outputs.end());
    }
    if (walls.size() == 1) {
      // Every repetition does the same work, so the first one reaches the
      // job's peak. Read it before any migration: moving between CPUs can
      // raise the kernel's RSS high-water mark by ~2 MiB without any more
      // memory in use.
      peak_rss = peak_rss_mib();
      first_outputs = outputs;
    } else if (outputs != first_outputs) {
      ++disagreements;
    }
    if (walls.size() >= kMinRepetitions &&
        seconds_since(start) + walls.back() > args.seconds) {
      break;
    }
  }
  while (setup.samples() < kMinSetupSamples) setup.sample();

  std::ostringstream times;
  times << "repetitions " << walls.size() << " of " << units
        << " units, job seconds: median " << median(walls) << ", each:";
  for (const double wall : walls) times << ' ' << wall;
  result.note(times.str());
  result.note("failed operations " + std::to_string(result.failed) + " of " +
              std::to_string(result.attempted));
  result.check("repetitions reproduce the first one's outputs",
               disagreements == 0,
               std::to_string(disagreements) + " disagreeing repetition(s)");
  for (const auto& [key, value] : first_outputs) result.output(key, value);
  result.metric("setup_s", setup.min_seconds(), "s");
  std::vector<double> part_fastest(part_count(workload, inputs), 0.0);
  for (std::size_t unit = 0; unit < units; ++unit) {
    part_fastest[unit / inputs.shards] +=
        *std::min_element(unit_walls[unit].begin(), unit_walls[unit].end());
  }
  double fastest = 0;
  std::ostringstream part_text;
  part_text << "fastest seconds per part (summed over its units):";
  for (const double seconds : part_fastest) {
    part_text << ' ' << seconds;
    fastest += seconds;
  }
  result.note(part_text.str());
  result.metric("wall_s", fastest, "s");
  result.metric("peak_rss_mib", peak_rss, "MiB");
  result.print(std::cout, args.workload, args.seed, args.smoke, false);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  require_release_build();
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 2;
  }
}
