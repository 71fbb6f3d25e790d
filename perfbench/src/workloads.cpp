#include "workloads.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

using core::Algorithm;
using sim::SchedulerKind;
using udring::Rng;

/// campaign-small: seed repetitions per cell (90 cells).
constexpr std::size_t kSmallSeeds = 1100;
constexpr std::size_t kSmallSeedsSmoke = 4;
/// campaign-small: timing units (shards) per grid. A shard of ~1030
/// scenarios takes a few ms and still holds more than the 256 scenarios the
/// engine needs before it batches lanes, as it does for the whole grid.
constexpr std::size_t kSmallShards = 16;
/// fuzz-checked: iterations per part, and parts.
constexpr std::size_t kFuzzIterations = 5'000;
constexpr std::size_t kFuzzIterationsSmoke = 100;
constexpr std::uint64_t kFuzzParts = 4;

/// mc-verify's instances are drawn the way `udring_mc --seed=1` draws them;
/// the workload seed then rotates each one around the ring. Agents are
/// anonymous and never see node labels, so a rotated instance has the same
/// schedule tree: verdicts and every McStats counter are seed-independent.
constexpr std::uint64_t kMcDrawSeed = 1;

struct McInstance {
  Algorithm algorithm;
  std::size_t n;
  std::size_t k;
};

[[nodiscard]] exp::CampaignOptions one_worker() {
  exp::CampaignOptions options;
  options.workers = 1;
  return options;
}

/// One grid per algorithm × scheduler (campaign-small) or per algorithm ×
/// scheduler × (n, k) point (campaign-large). The scenario substream key
/// leaves out the algorithm and scheduler, so these parts run exactly the
/// scenarios of the one grid they partition.
[[nodiscard]] std::vector<exp::CampaignGrid> campaign_grids(Workload workload,
                                                            std::uint64_t seed,
                                                            bool smoke) {
  using Point = std::pair<std::size_t, std::size_t>;
  const bool small = workload == Workload::CampaignSmall;
  const std::vector<SchedulerKind> schedulers = {
      SchedulerKind::RoundRobin, SchedulerKind::Random, SchedulerKind::Synchronous};
  const std::vector<Point> large_points =
      smoke ? std::vector<Point>{{256, 32}, {1024, 8}}
            : std::vector<Point>{{2048, 256}, {16384, 32}};
  std::vector<exp::CampaignGrid> grids;
  for (const Algorithm algorithm : {Algorithm::KnownKFull, Algorithm::KnownKLogMem}) {
    for (const SchedulerKind scheduler : schedulers) {
      exp::CampaignGrid grid;
      grid.algorithms = {algorithm};
      grid.schedulers = {scheduler};
      grid.families = {exp::ConfigFamily::RandomAny};
      grid.base_seed = seed;
      if (small) {
        grid.node_counts = {8, 12, 16, 20, 24};
        grid.agent_counts = {2, 3, 4};
        grid.seeds = smoke ? kSmallSeedsSmoke : kSmallSeeds;
        grids.push_back(grid);
        continue;
      }
      grid.seeds = smoke ? 1 : 2;
      for (const Point& point : large_points) {
        grid.instances = {point};
        grids.push_back(grid);
      }
    }
  }
  return grids;
}

/// fuzz-checked's parts: kFuzzParts runs whose base seeds derive from the
/// workload seed.
[[nodiscard]] std::vector<explore::FuzzOptions> fuzz_runs(std::uint64_t seed,
                                                          bool smoke) {
  explore::FuzzOptions options;
  options.algorithm = Algorithm::KnownKLogMem;
  options.topology = explore::FuzzTopology::Ring;
  options.min_nodes = 8;
  options.max_nodes = 24;
  options.min_agents = 2;
  options.max_agents = 6;
  options.oracle = explore::OracleMode::Full;
  // Spelled out so that a new scheduler kind cannot change the workload.
  using explore::ExploreSchedulerKind;
  options.schedulers = {
      ExploreSchedulerKind::RoundRobin,     ExploreSchedulerKind::Random,
      ExploreSchedulerKind::Synchronous,    ExploreSchedulerKind::Priority,
      ExploreSchedulerKind::Burst,          ExploreSchedulerKind::LinkDelay,
      ExploreSchedulerKind::BurstPartition, ExploreSchedulerKind::FifoStress,
      ExploreSchedulerKind::RewireAdversary};
  options.iterations = smoke ? kFuzzIterationsSmoke : kFuzzIterations;
  options.workers = 1;
  std::vector<explore::FuzzOptions> runs;
  for (std::uint64_t part = 0; part < kFuzzParts; ++part) {
    Rng derive = Rng(seed).substream(part);
    options.base_seed = derive();
    runs.push_back(options);
  }
  return runs;
}

[[nodiscard]] std::vector<mc::CheckRequest> mc_requests(std::uint64_t seed,
                                                        bool smoke) {
  const std::vector<McInstance> instances =
      smoke ? std::vector<McInstance>{{Algorithm::KnownKFull, 12, 3},
                                      {Algorithm::KnownKLogMem, 10, 3}}
            : std::vector<McInstance>{{Algorithm::KnownKFull, 24, 4},
                                      {Algorithm::KnownKLogMem, 20, 4}};
  std::vector<mc::CheckRequest> requests;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const McInstance& inst = instances[i];
    Rng draw(kMcDrawSeed);
    explore::DrawnInstance drawn =
        explore::draw_instance(explore::FuzzTopology::Ring, inst.n, inst.k, draw);
    Rng rotation = Rng(seed).substream(i);
    const std::size_t offset = rotation.index(drawn.node_count);
    for (std::size_t& home : drawn.homes) {
      home = (home + offset) % drawn.node_count;
    }
    mc::CheckRequest request;
    request.algorithm = inst.algorithm;
    request.node_count = drawn.node_count;
    request.homes = std::move(drawn.homes);
    requests.push_back(std::move(request));
  }
  return requests;
}

[[nodiscard]] Outcome campaign_outcome(std::size_t part,
                                       exp::CampaignResult result) {
  Outcome out;
  out.campaign = std::move(result);
  out.operations = out.campaign.scenario_count;
  out.failed_operations = out.campaign.failures;
  const std::string tag = "campaign" + std::to_string(part) + ".";
  out.outputs = {
      {tag + "scenarios", std::to_string(out.campaign.scenario_count)},
      {tag + "digest", hex64(out.campaign.digest())}};
  return out;
}

}  // namespace

Workload workload_from_name(std::string_view name) {
  if (name == "campaign-small") return Workload::CampaignSmall;
  if (name == "campaign-large") return Workload::CampaignLarge;
  if (name == "mc-verify") return Workload::McVerify;
  if (name == "fuzz-checked") return Workload::FuzzChecked;
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

bool is_campaign(Workload workload) noexcept {
  return workload == Workload::CampaignSmall ||
         workload == Workload::CampaignLarge;
}

Inputs prepare(Workload workload, std::uint64_t seed, bool smoke) {
  Inputs inputs;
  if (is_campaign(workload)) {
    inputs.grids = campaign_grids(workload, seed, smoke);
    for (const exp::CampaignGrid& grid : inputs.grids) {
      inputs.admitted.push_back(exp::admit_cells(grid, one_worker()));
    }
    // A campaign-large grid is one cell: one scenario per shard.
    inputs.shards = workload == Workload::CampaignSmall
                        ? kSmallShards
                        : inputs.grids.front().seeds;
  } else if (workload == Workload::McVerify) {
    inputs.requests = mc_requests(seed, smoke);
  } else {
    inputs.fuzz_runs = fuzz_runs(seed, smoke);
  }
  return inputs;
}

std::string verdict_text(const mc::ModelCheckReport& report) {
  return report.verdict + (report.complete ? " (complete)" : " (incomplete)");
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

std::size_t part_count(Workload workload, const Inputs& inputs) {
  if (is_campaign(workload)) return inputs.grids.size();
  if (workload == Workload::McVerify) return inputs.requests.size();
  return inputs.fuzz_runs.size();
}

Outcome run_part(Workload workload, const Inputs& inputs, std::size_t part) {
  if (is_campaign(workload)) {
    return campaign_outcome(
        part, exp::run_campaign_streaming(inputs.grids.at(part), one_worker()));
  }
  Outcome out;
  if (workload == Workload::McVerify) {
    out.mc = mc::check(inputs.requests.at(part));
    const mc::McStats& s = out.mc.stats;
    const std::string tag = "mc" + std::to_string(part) + ".";
    out.outputs = {{tag + "verdict", verdict_text(out.mc)},
                   {tag + "states_expanded", std::to_string(s.states_expanded)},
                   {tag + "states_deduped", std::to_string(s.states_deduped)},
                   {tag + "replays", std::to_string(s.replays)},
                   {tag + "actions", std::to_string(s.total_actions)}};
    out.operations = 1;
    out.failed_operations = out.mc.ok && out.mc.complete ? 0 : 1;
  } else {
    out.fuzz = explore::run_fuzz(inputs.fuzz_runs.at(part));
    out.operations = out.fuzz.iterations;
    out.failed_operations = out.fuzz.failures;
    const std::string tag = "fuzz" + std::to_string(part) + ".";
    out.outputs = {{tag + "base_seed", std::to_string(inputs.fuzz_runs[part].base_seed)},
                   {tag + "digest", hex64(out.fuzz.digest)},
                   {tag + "total_actions", std::to_string(out.fuzz.total_actions)},
                   {tag + "failures", std::to_string(out.fuzz.failures)}};
  }
  return out;
}

std::size_t unit_count(Workload workload, const Inputs& inputs) {
  return part_count(workload, inputs) * inputs.shards;
}

UnitRun run_unit(Workload workload, const Inputs& inputs, std::size_t unit) {
  UnitRun run;
  run.part = unit / inputs.shards;
  if (is_campaign(workload)) {
    run.shard = exp::run_campaign_shard(inputs.grids.at(run.part), one_worker(),
                                        unit % inputs.shards, inputs.shards);
  } else {
    run.outcome = run_part(workload, inputs, run.part);
  }
  return run;
}

std::vector<Outcome> finish_job(Workload workload, const Inputs& inputs,
                                std::vector<UnitRun> units) {
  std::vector<Outcome> parts;
  if (!is_campaign(workload)) {
    for (UnitRun& unit : units) parts.push_back(std::move(unit.outcome));
    return parts;
  }
  std::vector<std::vector<exp::ShardFile>> shards(part_count(workload, inputs));
  for (UnitRun& unit : units) {
    shards.at(unit.part).push_back(std::move(unit.shard));
  }
  for (std::size_t part = 0; part < shards.size(); ++part) {
    parts.push_back(
        campaign_outcome(part, exp::merge_shards(std::move(shards[part]))));
  }
  return parts;
}

}  // namespace perfbench
