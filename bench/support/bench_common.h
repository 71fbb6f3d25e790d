// bench/support/bench_common.h
//
// Shared plumbing for the per-table/per-figure bench binaries, now a thin
// veneer over the exp/campaign engine: configuration families, seed-averaged
// cell measurements and grid sweeps all come from exp::, so every binary's
// report is a campaign and parallelizes/reproduces like one. Every binary
// prints its paper-style report first (that output is the reproduction
// artifact) and then runs its registered google-benchmark timings.

#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "config/generators.h"
#include "core/runner.h"
#include "exp/campaign.h"
#include "util/rng.h"
#include "util/table.h"

namespace udring::bench {

using exp::Averages;
using exp::ConfigFamily;
using exp::draw_homes;

/// Seed-averaged measurement of one (algorithm, configuration family) cell,
/// delegated to the campaign engine (substream-seeded, reproducible).
/// The engine folds as it goes, so every bench binary's sweep — table1,
/// fig2, the ablations — runs in O(cells + workers) memory at any n; huge-n
/// grids are just more cells.
inline Averages measure(core::Algorithm algorithm, ConfigFamily family,
                        std::size_t n, std::size_t k, std::size_t l = 1,
                        std::size_t seeds = 5,
                        sim::SchedulerKind scheduler = sim::SchedulerKind::Synchronous) {
  return exp::measure_cell(algorithm, family, n, k, l, seeds, scheduler);
}

/// Registers a wall-clock google-benchmark for one algorithm/instance.
/// Iterations share one pooled core::RunContext, so the loop measures the
/// steady-state cost of a run (arena reuse, cached scheduler) rather than
/// repeated construction — the same shape production campaigns have.
inline void register_timing(const std::string& name, core::Algorithm algorithm,
                            ConfigFamily family, std::size_t n, std::size_t k,
                            std::size_t l = 1) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [=](benchmark::State& state) {
        core::RunContext ctx;
        std::uint64_t seed = 1;
        for (auto _ : state) {
          Rng rng(seed++);
          core::RunSpec spec;
          spec.node_count = n;
          spec.homes = draw_homes(family, n, k, l, rng);
          spec.scheduler = sim::SchedulerKind::RoundRobin;
          const core::RunReport report = ctx.run(algorithm, spec);
          benchmark::DoNotOptimize(report.total_moves);
          if (!report.success) state.SkipWithError("run failed");
        }
        state.counters["n"] = static_cast<double>(n);
        state.counters["k"] = static_cast<double>(k);
      })
      ->Unit(benchmark::kMillisecond);
}

/// Standard main body: print the report, then run registered timings.
inline int run_bench_main(int argc, char** argv, void (*print_report)(),
                          void (*register_timings)()) {
  print_report();
  register_timings();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace udring::bench
