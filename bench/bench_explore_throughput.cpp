// bench/bench_explore_throughput.cpp
//
// Schedule-exploration throughput: how many fuzzer steps (atomic actions
// under per-action invariant checking) the explorer sustains, and what the
// recording/checking layers cost relative to a raw simulator run on the
// same instance. The fuzzer's search power is steps/sec × budget, so this
// bench is the explorer's hot-path regression tracker, alongside the
// campaign engine's scaling bench.
//
//   bench_explore_throughput                 # full sweep
//   UDRING_EXPLORE_SMOKE=1 bench_explore_... # CI-sized

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/fuzz.h"
#include "explore/replay.h"
#include "explore/shrink.h"
#include "util/rng.h"

namespace {

using namespace udring;

[[nodiscard]] bool smoke() {
  const char* env = std::getenv("UDRING_EXPLORE_SMOKE");
  return env != nullptr && env[0] == '1';
}

[[nodiscard]] std::vector<std::size_t> bench_homes(std::size_t n, std::size_t k) {
  Rng rng(42);
  return exp::draw_homes(exp::ConfigFamily::RandomAny, n, k, 1, rng);
}

/// Raw baseline: the same instance under the same scheduler family, no
/// recording, no per-action checking — what the simulator alone costs.
void BM_RawRun(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  core::RunSpec spec;
  spec.node_count = n;
  spec.homes = bench_homes(n, k);
  spec.scheduler = sim::SchedulerKind::RoundRobin;
  std::size_t actions = 0;
  for (auto _ : state) {
    const core::RunReport report =
        core::run_algorithm(core::Algorithm::KnownKFull, spec);
    benchmark::DoNotOptimize(report.total_moves);
    actions += report.result.actions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(actions));
  state.counters["actions/s"] = benchmark::Counter(
      static_cast<double>(actions), benchmark::Counter::kIsRate);
}

/// One full fuzzer step pipeline: record + invariant check every action +
/// goal oracle. items/sec here IS fuzzer steps/sec. range(2) picks the
/// per-action oracle (0 = full re-walk, 1 = incremental O(dirty)) — the
/// spread between the two rows is what the incremental checker buys, and it
/// widens with n (the full walk is O(n) per action, the footprint is not).
void BM_FuzzerSteps(benchmark::State& state) {
  explore::FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKFull;
  options.min_nodes = options.max_nodes = static_cast<std::size_t>(state.range(0));
  options.min_agents = options.max_agents = static_cast<std::size_t>(state.range(1));
  options.oracle = state.range(2) == 0 ? explore::OracleMode::Full
                                       : explore::OracleMode::Incremental;
  std::size_t actions = 0;
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    const explore::FuzzIteration outcome =
        explore::fuzz_iteration(options, iteration++);
    if (outcome.failure) state.SkipWithError("unexpected fuzz failure");
    actions += outcome.actions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(actions));
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(actions), benchmark::Counter::kIsRate);
}

/// Replay throughput (the shrinker's inner loop — each ddmin candidate
/// costs one of these).
void BM_Replay(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  explore::RecordRequest request;
  request.algorithm = core::Algorithm::KnownKFull;
  request.node_count = n;
  request.homes = bench_homes(n, k);
  request.kind = explore::ExploreSchedulerKind::FifoStress;
  request.seed = 7;
  const explore::ScheduleTrace trace = explore::record_trace(request);
  std::size_t actions = 0;
  for (auto _ : state) {
    const explore::ReplayOutcome outcome = explore::replay_trace(trace);
    benchmark::DoNotOptimize(outcome.digest);
    actions += outcome.actions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(actions));
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(actions), benchmark::Counter::kIsRate);
}

/// Parallel fuzz campaign scaling (substream-sharded over the worker pool).
void BM_FuzzCampaign(benchmark::State& state) {
  explore::FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKFull;
  options.iterations = smoke() ? 16 : 128;
  options.workers = static_cast<std::size_t>(state.range(0));
  std::size_t actions = 0;
  for (auto _ : state) {
    const explore::FuzzReport report = explore::run_fuzz(options);
    if (report.failures != 0) state.SkipWithError("unexpected fuzz failure");
    actions += report.total_actions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(actions));
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(actions), benchmark::Counter::kIsRate);
}

void register_all() {
  const std::vector<std::pair<std::int64_t, std::int64_t>> instances =
      smoke() ? std::vector<std::pair<std::int64_t, std::int64_t>>{{24, 6}}
              : std::vector<std::pair<std::int64_t, std::int64_t>>{
                    {24, 6}, {64, 8}, {128, 16}};
  for (const auto& [n, k] : instances) {
    benchmark::RegisterBenchmark("raw_run", BM_RawRun)->Args({n, k});
    benchmark::RegisterBenchmark("fuzzer_steps", BM_FuzzerSteps)
        ->Args({n, k, 0});
    benchmark::RegisterBenchmark("fuzzer_steps_incremental", BM_FuzzerSteps)
        ->Args({n, k, 1});
    benchmark::RegisterBenchmark("replay", BM_Replay)->Args({n, k});
  }
  const std::vector<std::int64_t> workers =
      smoke() ? std::vector<std::int64_t>{1, 2} : std::vector<std::int64_t>{1, 2, 4, 8};
  for (const std::int64_t w : workers) {
    benchmark::RegisterBenchmark("fuzz_campaign_workers", BM_FuzzCampaign)
        ->Args({w})
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
