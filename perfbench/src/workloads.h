// perfbench/src/workloads.h
//
// The four benchmark workloads and their fixed jobs, driven through the
// public engine entry points: exp::run_campaign_streaming (and the shards it
// is built from), mc::check and explore::run_fuzz, always on one worker
// thread. Inputs derive from the workload seed only; LAYERS.md says why each
// workload exists.
//
// A job is a fixed list of parts (campaign grids, mc instances, fuzz runs).
// The untraced binary times it in smaller units (campaign shards of a few
// milliseconds, one campaign-large scenario, an mc instance, a fuzz run): the
// machine switches between a fast and a slow speed many times a second, and
// short units let the fastest repetition of each be found (LAYERS.md,
// "Timing").

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/campaign.h"
#include "exp/shard.h"
#include "explore/fuzz.h"
#include "mc/model_check.h"

namespace perfbench {

namespace core = udring::core;
namespace exp = udring::exp;
namespace explore = udring::explore;
namespace mc = udring::mc;
namespace sim = udring::sim;

enum class Workload { CampaignSmall, CampaignLarge, McVerify, FuzzChecked };

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload workload_from_name(std::string_view name);

[[nodiscard]] bool is_campaign(Workload workload) noexcept;

/// The inputs of one job: everything the setup phase builds before the
/// timed job starts.
struct Inputs {
  std::vector<exp::CampaignGrid> grids;  ///< campaign-*: one per part
  /// campaign-*: each grid's admitted cells, the expansion the engine runs.
  std::vector<exp::AdmittedExpansion> admitted;
  /// Timing units per part: campaign-*: shards per grid; otherwise 1.
  std::size_t shards = 1;
  std::vector<mc::CheckRequest> requests;  ///< mc-verify: one per part
  std::vector<explore::FuzzOptions> fuzz_runs;  ///< fuzz-checked: one per part
};

[[nodiscard]] std::size_t part_count(Workload workload, const Inputs& inputs);

/// Builds the inputs of `workload` for `seed` (`smoke` = small sizes for the
/// harness self-test). This is the setup phase that setup_s times.
[[nodiscard]] Inputs prepare(Workload workload, std::uint64_t seed, bool smoke);

/// One run of one part of the workload's job and what it produced.
struct Outcome {
  std::uint64_t operations = 0;  ///< scenarios, mc instances or fuzz iterations
  std::uint64_t failed_operations = 0;
  exp::CampaignResult campaign;
  mc::ModelCheckReport mc;
  explore::FuzzReport fuzz;
  /// Digests, verdicts and totals, keyed by part, in a fixed order:
  /// compared between repetitions and against perfbench/pins.json.
  std::vector<std::pair<std::string, std::string>> outputs;
};

[[nodiscard]] Outcome run_part(Workload workload, const Inputs& inputs,
                               std::size_t part);

/// The untraced binary's timing units: part p is units [p·shards,
/// (p+1)·shards). A campaign unit is one shard of the part's grid, run
/// through exp::run_campaign_shard; merged with exp::merge_shards the shards
/// are the part's run_campaign_streaming result, which is how that function
/// builds it. An mc or fuzz unit is one whole part.
[[nodiscard]] std::size_t unit_count(Workload workload, const Inputs& inputs);

/// One run of one unit of the job.
struct UnitRun {
  std::size_t part = 0;
  exp::ShardFile shard;  ///< campaign-*: the unit's shard of the part's grid
  Outcome outcome;       ///< mc-verify, fuzz-checked: the whole part
};

[[nodiscard]] UnitRun run_unit(Workload workload, const Inputs& inputs,
                               std::size_t unit);

/// Every part's outcome from one run of all the job's units.
[[nodiscard]] std::vector<Outcome> finish_job(Workload workload,
                                              const Inputs& inputs,
                                              std::vector<UnitRun> units);

/// The mc verdict as udring_mc prints it, e.g. "verified (complete)".
[[nodiscard]] std::string verdict_text(const mc::ModelCheckReport& report);

[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace perfbench
