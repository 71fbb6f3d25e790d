// tools/campaign_shard.cpp
//
// Multi-process campaign driver: run one shard of a campaign grid as its own
// process, then merge the shard files into the exact result a single process
// would have produced (byte-identical digest — the engine's determinism
// contract, extended across process boundaries by exp/shard.h).
//
//   udring_campaign --grid=engine --shard=0/3 --out=shard_0.bin
//   udring_campaign --grid=engine --shard=1/3 --out=shard_1.bin
//   udring_campaign --grid=engine --shard=2/3 --out=shard_2.bin
//   udring_campaign --merge shard_0.bin shard_1.bin shard_2.bin
//
// A shard file doubles as its own checkpoint: re-running a --shard command
// whose --out already exists resumes from the recorded watermark (pass
// --checkpoint-every to bound how much work a kill -9 can lose). A whole
// single-process run (the reference for digest comparisons) is the default
// mode, and honors --checkpoint/--checkpoint-every the same way.
//
// The modes are run (the default), shard and merge; each flag names the
// modes that read it (see --help), and any other given flag is a usage
// error.
//
// Exit codes: 0 = success, 1 = campaign/merge failure (fingerprint mismatch,
// overlapping shards, corrupt file, IO), 2 = usage error.

#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaign.h"
#include "exp/shard.h"
#include "util/cli.h"

namespace {

using namespace udring;

/// The bench_campaign_engine grids, reproduced so CI can cross-check the
/// tool against the in-process engine on the exact same sweep.
exp::CampaignGrid preset_grid(const std::string& name) {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.schedulers = {sim::SchedulerKind::RoundRobin,
                     sim::SchedulerKind::Random};
  if (name == "engine") {
    grid.node_counts = {16, 24, 32, 40, 48, 56, 64};
    grid.agent_counts = {2, 3, 4, 5, 6, 7, 8};
    grid.seeds = 16;  // 7 × 7 × 2 × 16 = 1568 scenarios
  } else if (name == "smoke") {
    grid.node_counts = {16, 24};
    grid.agent_counts = {2, 4};
    grid.seeds = 2;  // 16 scenarios
  } else {
    throw std::invalid_argument("unknown --grid preset '" + name +
                                "' (expected: engine, smoke)");
  }
  return grid;
}

/// Parses "--shard=i/N".
std::pair<std::size_t, std::size_t> parse_shard_spec(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("--shard expects i/N, got '" + spec + "'");
  }
  const std::uint64_t index = parse_unsigned(spec.substr(0, slash), "--shard");
  const std::uint64_t count = parse_unsigned(spec.substr(slash + 1), "--shard");
  if (count == 0 || index >= count) {
    throw std::invalid_argument("--shard index out of range: '" + spec + "'");
  }
  return {index, count};
}

void print_result(const exp::CampaignResult& result, bool summary) {
  if (summary) std::cout << result.summary();
  std::cout << "scenarios: " << result.scenario_count
            << "  failures: " << result.failures << "  digest: " << std::hex
            << std::setfill('0') << std::setw(16) << result.digest()
            << std::dec << '\n';
}

int run(int argc, char** argv) {
  Cli cli(argc, argv, {"run", "shard", "merge"});
  const Cli::Modes sweep = {"run", "shard"};  // the modes that run the grid
  const std::string grid_name =
      *cli.get("grid", "grid preset: engine (1568 scenarios) or smoke",
               "engine", sweep);
  // Cli::get returns nullopt for an absent flag with an empty fallback.
  const std::string shard_spec =
      cli.get("shard", "run only slice i of N equal slices (i/N)", "",
              {"shard"})
          .value_or("");
  const std::string out_path =
      cli.get("out", "shard-file path for --shard (doubles as checkpoint)", "",
              {"shard"})
          .value_or("");
  const std::string checkpoint_path =
      cli.get("checkpoint", "checkpoint file for a whole-grid run", "", {"run"})
          .value_or("");
  const std::size_t checkpoint_every = cli.get_size(
      "checkpoint-every", 0,
      "scenarios per checkpoint write (0 = only the final file)", sweep);
  const std::size_t seeds =
      cli.get_size("seeds", 0, "override the preset's seeds per cell", sweep);
  const std::uint64_t base_seed =
      cli.get_u64("base-seed", 0, "override the preset's base seed", sweep);
  const std::size_t workers =
      cli.get_size("workers", 0, "worker threads (0 = hardware)", sweep);
  const bool merge =
      cli.get_flag("merge", "merge the positional shard files instead");
  const std::vector<std::string>& shard_paths =
      cli.get_positionals("shard files to merge", {"merge"});
  const bool allow_partial = cli.get_flag(
      "allow-partial", "merge even when the shards do not tile the sweep",
      {"merge"});
  const bool summary = cli.get_flag(
      "summary", "print the per-cell table, not just the digest",
      {"run", "merge"});
  if (cli.wants_help()) {
    cli.print_help("Sharded campaign driver: run grid slices as separate "
                   "processes and merge their shard files byte-identically.");
    return 0;
  }
  const std::string mode = merge ? "merge" : cli.has("shard") ? "shard" : "run";
  // Without a checkpoint file the blocks only partition the same folds.
  cli.read_only_if("checkpoint-every",
                   mode == "shard" || !checkpoint_path.empty(),
                   "with --shard or --checkpoint");
  cli.reject_bad_flags(mode);

  if (mode == "merge") {
    if (shard_paths.empty()) {
      throw std::invalid_argument("--merge needs shard file paths");
    }
    std::vector<exp::ShardFile> shards;
    shards.reserve(shard_paths.size());
    for (const std::string& path : shard_paths) {
      shards.push_back(exp::load_shard_file(path));
    }
    const exp::CampaignResult result =
        exp::merge_shards(std::move(shards), allow_partial);
    print_result(result, summary);
    return 0;
  }

  exp::CampaignGrid grid = preset_grid(grid_name);
  if (seeds != 0) grid.seeds = seeds;
  if (base_seed != 0) grid.base_seed = base_seed;
  exp::CampaignOptions options;
  options.workers = workers;
  options.checkpoint_every_scenarios = checkpoint_every;

  if (mode == "shard") {
    if (out_path.empty()) {
      throw std::invalid_argument("--shard needs --out=<shard file>");
    }
    const auto [index, count] = parse_shard_spec(shard_spec);
    options.checkpoint_path = out_path;
    const exp::ShardFile shard =
        exp::run_campaign_shard(grid, options, index, count);
    std::cout << "shard " << index << "/" << count << ": scenarios ["
              << shard.range_begin << ", " << shard.range_end << ") of "
              << shard.scenario_total << " -> " << out_path << '\n';
    return 0;
  }

  options.checkpoint_path = checkpoint_path;
  const exp::CampaignResult result = exp::run_campaign_streaming(grid, options);
  print_result(result, summary);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::cerr << "udring_campaign: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "udring_campaign: " << error.what() << '\n';
    return 1;
  }
}
