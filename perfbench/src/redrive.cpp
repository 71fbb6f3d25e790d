#include "redrive.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/runner.h"
#include "explore/replay.h"
#include "sim/execution_state.h"
#include "util/rng.h"

// The traced binary's one counting-allocator TU (sim.allocs). The untraced
// binary does not link it.
#include "util/counting_allocator.h"

namespace perfbench {

namespace {

using udring::Rng;
using udring::fold64;

/// Keeps `value` and the memory it may read observable to the optimizer, so
/// a timed loop of identical calls is not folded into one.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

[[nodiscard]] double per(double total, double count) {
  return count > 0 ? total / count : 0;
}

void check(TracedRun& run, std::string name, bool ok, std::string detail = "") {
  run.checks.push_back({std::move(name), ok, std::move(detail)});
}

// ---- campaign-* -------------------------------------------------------------

/// The campaign engine's scenario substream key: the instance coordinates
/// (family, n, k, l, repetition), folded in that order from 0. Mirrored here
/// from the documented derivation so the re-drive can rebuild each scenario's
/// RunSpec from public calls only.
[[nodiscard]] std::uint64_t instance_key(const exp::Scenario& s) {
  std::uint64_t key = 0;
  fold64(key, static_cast<std::uint64_t>(s.family));
  fold64(key, s.node_count);
  fold64(key, s.agent_count);
  fold64(key, s.symmetry);
  fold64(key, s.repetition);
  return key;
}

/// "" when equal, else what differs.
[[nodiscard]] std::string compare_cells(
    const std::map<exp::CellKey, exp::CellStats>& traced,
    const std::map<exp::CellKey, exp::CellStats>& untraced) {
  if (traced.size() != untraced.size()) {
    return std::to_string(traced.size()) + " cells vs " +
           std::to_string(untraced.size());
  }
  std::size_t index = 0;
  for (auto t = traced.begin(), u = untraced.begin(); t != traced.end();
       ++t, ++u, ++index) {
    const exp::CellStats& a = t->second;
    const exp::CellStats& b = u->second;
    const bool same =
        t->first == u->first && a.runs == b.runs && a.successes == b.successes &&
        a.moves_sum == b.moves_sum && a.makespan_sum == b.makespan_sum &&
        a.memory_bits_sum == b.memory_bits_sum && a.actions_sum == b.actions_sum;
    if (!same) return "cell " + std::to_string(index) + " differs";
    for (const double q : {0.5, 0.9, 0.99}) {
      if (a.moves_sketch.quantile(q) != b.moves_sketch.quantile(q) ||
          a.makespan_sketch.quantile(q) != b.makespan_sketch.quantile(q)) {
        return "cell " + std::to_string(index) + " quantile sketches differ";
      }
    }
  }
  return "";
}

void redrive_campaign(const exp::CampaignGrid& grid,
                      const exp::AdmittedExpansion& admitted, std::size_t part,
                      const Outcome& untraced, SpanRecorder& rec,
                      TracedRun& run) {
  const std::uint32_t n_job = rec.name("job");
  const std::uint32_t n_scenario = rec.name("scenario");
  const std::uint32_t n_spec = rec.name("exp.spec");
  const std::uint32_t n_instance = rec.name("core.instance");
  const std::uint32_t n_reset = rec.name("sim.reset");
  const std::uint32_t n_run = rec.name("sim.run");
  const std::uint32_t n_pick = rec.name("sim.sched_pick");
  const std::uint32_t n_judge = rec.name("core.judge");
  const std::uint32_t n_fold = rec.name("exp.fold");

  const std::vector<exp::CellKey>& cells = admitted.cells;
  const std::size_t total = cells.size() * grid.seeds;
  core::RunContext ctx;
  std::optional<sim::Instance> instance;
  TimedScheduler timed;
  std::map<exp::CellKey, exp::CellStats> folded;

  const std::size_t allocs_before = udring::allocation_count();
  ScopedSpan job(rec, n_job, SpanRecorder::kNoParent, part);
  for (std::size_t i = 0; i < total; ++i) {
    ScopedSpan scenario(rec, n_scenario, job.id(), i);
    // The engine's per-scenario outcome: success and the four measures; a
    // throwing scenario is a failure with zero measures, as in the engine.
    bool success = false;
    std::uint64_t moves = 0, makespan = 0, memory_bits = 0, actions = 0;
    try {
      exp::Scenario s;
      core::RunSpec spec;
      {
        ScopedSpan span(rec, n_spec, scenario.id(), i);
        s = exp::scenario_at(cells, grid.seeds, i);
        Rng rng = Rng(grid.base_seed).substream(instance_key(s));
        spec.node_count = s.node_count;
        spec.homes = exp::draw_homes(s.family, s.node_count, s.agent_count,
                                     s.symmetry, rng);
        spec.seed = rng();
        spec.scheduler = s.scheduler;
        spec.sim_options = grid.sim_options;
        spec.problem = s.problem;
      }
      {
        ScopedSpan span(rec, n_instance, scenario.id(), i);
        instance.emplace(core::make_instance(s.algorithm, spec));
      }
      {
        // The pooled scheduler's lookup and reseed count as arena preparation.
        ScopedSpan span(rec, n_reset, scenario.id(), i);
        ctx.state().reset(*instance);
        timed.wrap(ctx.scheduler(spec.scheduler, spec.seed, spec.homes.size()));
      }
      sim::RunResult result;
      {
        ScopedSpan span(rec, n_run, scenario.id(), i);
        result = ctx.state().run(timed);
        span.finish();
        rec.aggregate(span.id(), n_pick, timed.take_ns());
      }
      {
        ScopedSpan span(rec, n_judge, scenario.id(), i);
        if (result.quiescent()) {
          success = ctx.oracle(s.algorithm, s.problem).check_goal(ctx.state()).ok;
        }
        const sim::Metrics& metrics = ctx.state().metrics();
        moves = metrics.total_moves();
        makespan = metrics.makespan();
        memory_bits = metrics.max_memory_bits();
        actions = result.actions;
      }
    } catch (const std::exception&) {
      success = false;
      moves = makespan = memory_bits = actions = 0;
    }
    {
      ScopedSpan span(rec, n_fold, scenario.id(), i);
      exp::CellStats& stats = folded[cells[i / grid.seeds]];
      ++stats.runs;
      if (success) ++stats.successes;
      stats.moves_sum += moves;
      stats.makespan_sum += makespan;
      stats.memory_bits_sum += memory_bits;
      stats.actions_sum += actions;
      stats.moves_sketch.add(moves);
      stats.makespan_sketch.add(makespan);
    }
    run.actions += actions;
    if (!success) ++run.failed_operations;
  }
  run.wall_s += static_cast<double>(job.finish()) * 1e-9;
  run.allocations += udring::allocation_count() - allocs_before;
  run.operations += total;
  run.sched_draws += timed.draws();

  const std::string tag = "campaign" + std::to_string(part);
  check(run, "traced " + tag + " scenario count equals the untraced one",
        total == untraced.campaign.scenario_count,
        std::to_string(total) + " vs " +
            std::to_string(untraced.campaign.scenario_count));
  const std::string diff = compare_cells(folded, untraced.campaign.cells);
  check(run, "traced " + tag + " per-cell CellStats equal the untraced ones",
        diff.empty(), diff);
}

// ---- mc-verify --------------------------------------------------------------

[[nodiscard]] bool same_stats(const mc::McStats& a, const mc::McStats& b) {
  return a.schedules == b.schedules && a.states_expanded == b.states_expanded &&
         a.states_deduped == b.states_deduped &&
         a.sleep_pruned == b.sleep_pruned && a.dpor_pruned == b.dpor_pruned &&
         a.replays == b.replays && a.total_actions == b.total_actions &&
         a.max_depth == b.max_depth && a.shards == b.shards;
}

void redrive_mc(const mc::CheckRequest& request, std::size_t part,
                const Outcome& untraced, SpanRecorder& rec, TracedRun& run) {
  const std::uint32_t n_job = rec.name("job");
  const std::uint32_t n_check = rec.name("mc.check");
  const std::size_t allocs_before = udring::allocation_count();
  mc::ModelCheckReport report;
  {
    ScopedSpan job(rec, n_job, SpanRecorder::kNoParent, part);
    {
      ScopedSpan span(rec, n_check, job.id(), part);
      report = mc::check(request);
    }
    run.wall_s += static_cast<double>(job.finish()) * 1e-9;
  }
  run.allocations += udring::allocation_count() - allocs_before;
  run.operations += 1;
  if (!(report.ok && report.complete)) ++run.failed_operations;
  const mc::McStats& s = report.stats;
  run.mc.states_expanded += s.states_expanded;
  run.mc.states_deduped += s.states_deduped;
  run.mc.sleep_pruned += s.sleep_pruned;
  run.mc.dpor_pruned += s.dpor_pruned;
  run.mc.replays += s.replays;
  run.mc.total_actions += s.total_actions;
  run.actions += s.total_actions;
  check(run,
        "traced mc" + std::to_string(part) +
            " verdict and McStats equal the untraced ones",
        verdict_text(report) == verdict_text(untraced.mc) &&
            same_stats(s, untraced.mc.stats));
}

/// Unit cost of ExecutionState::config_digest() on the states of complete
/// round-robin, random and synchronous schedules of each mc-verify
/// instance, in ns per call.
[[nodiscard]] double config_digest_ns(const std::vector<mc::CheckRequest>& requests) {
  constexpr int kCallsPerState = 16;
  constexpr std::int64_t kMinTotalNs = 50'000'000;
  sim::ExecutionState state;
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  while (ns < kMinTotalNs) {
    for (const mc::CheckRequest& request : requests) {
      core::RunSpec spec;
      spec.node_count = request.node_count;
      spec.homes = request.homes;
      spec.problem = request.problem;
      const sim::Instance instance = core::make_instance(request.algorithm, spec);
      for (const sim::SchedulerKind kind :
           {sim::SchedulerKind::RoundRobin, sim::SchedulerKind::Random,
            sim::SchedulerKind::Synchronous}) {
        state.reset(instance);
        const auto scheduler =
            sim::make_scheduler(kind, calls + 1, request.homes.size());
        scheduler->attach(state);
        scheduler->reset(request.homes.size());
        do {
          const Clock::time_point start = Clock::now();
          for (int c = 0; c < kCallsPerState; ++c) keep(state.config_digest());
          ns += elapsed_ns(start, Clock::now());
          calls += kCallsPerState;
        } while (state.step(*scheduler));
      }
    }
  }
  return per(static_cast<double>(ns), static_cast<double>(calls));
}

// ---- fuzz-checked -----------------------------------------------------------

/// Iteration `i`'s recording request, drawn exactly as fuzz_iteration draws
/// it for a ring-topology, RandomAny, fault-free FuzzOptions.
[[nodiscard]] explore::RecordRequest fuzz_request(const explore::FuzzOptions& o,
                                                  std::uint64_t i) {
  Rng rng = Rng(o.base_seed).substream(i);
  const std::size_t n = static_cast<std::size_t>(
      rng.between(o.min_nodes, std::max(o.min_nodes, o.max_nodes)));
  const std::size_t k_hi = std::min(std::max(o.min_agents, o.max_agents), n);
  const std::size_t k = static_cast<std::size_t>(
      rng.between(std::min(o.min_agents, k_hi), k_hi));
  explore::DrawnInstance drawn = explore::draw_instance(o.topology, n, k, rng);
  explore::RecordRequest request;
  request.algorithm = o.algorithm;
  request.problem = o.problem;
  request.node_count = drawn.node_count;
  request.homes = std::move(drawn.homes);
  request.topology = std::move(drawn.topology);
  request.kind = o.schedulers[rng.index(o.schedulers.size())];
  request.seed = rng();
  request.max_actions = o.max_actions;
  request.oracle = o.oracle;
  request.oracle_full_check_every = o.oracle_full_check_every;
  return request;
}

/// The p-quantile of `values` as an order statistic (nearest rank).
[[nodiscard]] double rank_quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void redrive_fuzz(const explore::FuzzOptions& options, std::size_t part,
                  const Outcome& untraced, SpanRecorder& rec, TracedRun& run) {
  constexpr std::size_t kOverheadSamples = 250;  // per part
  const std::uint32_t n_job = rec.name("job");
  const std::uint32_t n_iteration = rec.name("explore.iteration");
  const std::size_t stride =
      std::max<std::size_t>(1, options.iterations / kOverheadSamples);

  struct Sample {
    std::uint64_t iteration;
    std::int64_t checked_ns;
    std::size_t actions;
  };
  std::vector<Sample> samples;
  sim::ExecutionState state;
  std::uint64_t digest = 0xf0220feed5eedULL;  // run_fuzz's fold, mirrored
  fold64(digest, options.iterations);
  std::uint64_t actions = 0;

  const std::size_t allocs_before = udring::allocation_count();
  {
    ScopedSpan job(rec, n_job, SpanRecorder::kNoParent, options.base_seed);
    for (std::uint64_t i = 0; i < options.iterations; ++i) {
      ScopedSpan span(rec, n_iteration, job.id(), i);
      const explore::FuzzIteration it =
          explore::fuzz_iteration(options, i, &state);
      const std::int64_t ns = span.finish();
      run.iteration_us.push_back(static_cast<double>(ns) * 1e-3);
      if (i % stride == 0) samples.push_back({i, ns, it.actions});
      fold64(digest, it.failure ? 1 : 0);
      fold64(digest, it.actions);
      fold64(digest, it.digest);
      if (it.failure) {
        ++run.failed_operations;
        fold64(digest, it.failure->at_action);
      }
      actions += it.actions;
    }
    run.wall_s += static_cast<double>(job.finish()) * 1e-9;
  }
  run.allocations += udring::allocation_count() - allocs_before;
  run.operations += options.iterations;
  run.actions += actions;

  // Unchecked re-runs of the sampled iterations: same instance, same choices,
  // no per-action oracle and no event log.
  std::size_t replay_mismatches = 0;
  for (const Sample& sample : samples) {
    const explore::RecordRequest request = fuzz_request(options, sample.iteration);
    const explore::ScheduleTrace trace = explore::record_trace(request, &state);
    core::RunSpec spec;
    spec.node_count = request.node_count;
    spec.homes = request.homes;
    spec.problem = request.problem;
    explore::ReplayScheduler replay(trace.choices);
    const Clock::time_point start = Clock::now();
    const sim::Instance instance = core::make_instance(request.algorithm, spec);
    state.reset(instance);
    const sim::RunResult result = state.run(replay);
    run.unchecked_ns += elapsed_ns(start, Clock::now());
    run.checked_ns += sample.checked_ns;
    if (result.actions != sample.actions || trace.choices.size() != sample.actions) {
      ++replay_mismatches;
    }
  }

  const std::string tag = "fuzz" + std::to_string(part);
  check(run, "traced " + tag + " total_actions equals FuzzReport::total_actions",
        actions == untraced.fuzz.total_actions,
        std::to_string(actions) + " vs " + std::to_string(untraced.fuzz.total_actions));
  check(run, "traced " + tag + " digest equals FuzzReport::digest",
        digest == untraced.fuzz.digest,
        hex64(digest) + " vs " + hex64(untraced.fuzz.digest));
  check(run, tag + " unchecked re-runs replay the checked iterations' actions",
        replay_mismatches == 0,
        std::to_string(replay_mismatches) + " of " + std::to_string(samples.size()) +
            " differ");
}

/// Median cost of one steady_clock read, in ns.
[[nodiscard]] double timer_ns() {
  constexpr int kReads = 1000;
  std::vector<double> batches;
  for (int b = 0; b < 15; ++b) {
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < kReads; ++r) keep(Clock::now());
    batches.push_back(static_cast<double>(elapsed_ns(start, Clock::now())) / kReads);
  }
  return median(std::move(batches));
}

}  // namespace

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"exp.scenarios", "count"},
      {"exp.spec_s", "s"},
      {"exp.fold_s", "s"},
      {"core.instance_s", "s"},
      {"core.judge_s", "s"},
      {"sim.actions", "count"},
      {"sim.sched_draws", "count"},
      {"sim.reset_s", "s"},
      {"sim.run_s", "s"},
      {"sim.ns_per_action", "ns"},
      {"sim.sched_pick_s", "s"},
      {"sim.allocs", "count/op"},
      {"sim.config_digest_ns", "ns"},
      {"mc.states_expanded", "count"},
      {"mc.states_deduped", "count"},
      {"mc.dedup_hit_ratio", "ratio"},
      {"mc.sleep_pruned", "count"},
      {"mc.dpor_pruned", "count"},
      {"mc.replays", "count"},
      {"mc.actions", "count"},
      {"mc.actions_per_state", "ratio"},
      {"explore.iterations", "count"},
      {"explore.actions", "count"},
      {"explore.iter_us_p50", "us"},
      {"explore.iter_us_p99", "us"},
      {"explore.check_overhead_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.coverage_ratio", "ratio"},
      {"trace.timer_ns", "ns"},
  };
  return metrics;
}

void redrive_part(Workload workload, const Inputs& inputs, std::size_t part,
                  const Outcome& untraced, SpanRecorder& recorder,
                  TracedRun& run) {
  if (is_campaign(workload)) {
    redrive_campaign(inputs.grids.at(part), inputs.admitted.at(part), part,
                     untraced, recorder, run);
  } else if (workload == Workload::McVerify) {
    redrive_mc(inputs.requests.at(part), part, untraced, recorder, run);
  } else {
    redrive_fuzz(inputs.fuzz_runs.at(part), part, untraced, recorder, run);
  }
}

std::map<std::string, double> layer_values(Workload workload,
                                           const Inputs& inputs,
                                           const TracedRun& run,
                                           const SpanRecorder& recorder) {
  std::map<std::string, double> self = recorder.self_seconds();
  const double ops = static_cast<double>(run.operations);
  const double actions = static_cast<double>(run.actions);
  std::map<std::string, double> v;
  v["sim.actions"] = actions;
  v["sim.allocs"] = per(static_cast<double>(run.allocations), ops);
  // Everything but the glue between the recorded layer calls: the root
  // spans' and the per-scenario spans' own time.
  v["trace.coverage_ratio"] =
      per(run.wall_s - self["job"] - self["scenario"], run.wall_s);
  v["trace.timer_ns"] = timer_ns();
  if (is_campaign(workload)) {
    v["exp.scenarios"] = ops;
    v["exp.spec_s"] = self["exp.spec"];
    v["exp.fold_s"] = self["exp.fold"];
    v["core.instance_s"] = self["core.instance"];
    v["core.judge_s"] = self["core.judge"];
    v["sim.sched_draws"] = static_cast<double>(run.sched_draws);
    v["sim.reset_s"] = self["sim.reset"];
    v["sim.run_s"] = self["sim.run"];
    v["sim.sched_pick_s"] = self["sim.sched_pick"];
    v["sim.ns_per_action"] = per(self["sim.run"] * 1e9, actions);
  } else if (workload == Workload::McVerify) {
    const double expanded = static_cast<double>(run.mc.states_expanded);
    const double deduped = static_cast<double>(run.mc.states_deduped);
    v["sim.config_digest_ns"] = config_digest_ns(inputs.requests);
    v["mc.states_expanded"] = expanded;
    v["mc.states_deduped"] = deduped;
    v["mc.dedup_hit_ratio"] = per(deduped, expanded + deduped);
    v["mc.sleep_pruned"] = static_cast<double>(run.mc.sleep_pruned);
    v["mc.dpor_pruned"] = static_cast<double>(run.mc.dpor_pruned);
    v["mc.replays"] = static_cast<double>(run.mc.replays);
    v["mc.actions"] = static_cast<double>(run.mc.total_actions);
    v["mc.actions_per_state"] = per(static_cast<double>(run.mc.total_actions), expanded);
  } else {
    v["explore.iterations"] = ops;
    v["explore.actions"] = actions;
    v["explore.iter_us_p50"] = rank_quantile(run.iteration_us, 0.50);
    v["explore.iter_us_p99"] = rank_quantile(run.iteration_us, 0.99);
    v["explore.check_overhead_ratio"] = per(static_cast<double>(run.checked_ns),
                                            static_cast<double>(run.unchecked_ns));
  }
  return v;
}

}  // namespace perfbench
