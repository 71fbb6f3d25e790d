#include "exp/shard.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/binio.h"
#include "util/io.h"
#include "util/rng.h"

namespace udring::exp {

namespace {

/// Domain salt for grid_fingerprint — its own constant so the fingerprint,
/// the result digest (kDigestSalt) and the Rng substream derivation can
/// never collide even on identical folded values.
constexpr std::uint64_t kFingerprintSalt = 0x5d4a12df00d5ee3bULL;

void fold_cell_key(std::uint64_t& state, const CellKey& key) {
  fold64(state, static_cast<std::uint64_t>(key.algorithm));
  fold64(state, static_cast<std::uint64_t>(key.family));
  fold64(state, static_cast<std::uint64_t>(key.scheduler));
  fold64(state, key.node_count);
  fold64(state, key.agent_count);
  fold64(state, key.symmetry);
  fold64(state, static_cast<std::uint64_t>(key.problem.kind));
  fold64(state, key.problem.gather_g);
}

/// Domain salt for the checksum trailer.
constexpr std::uint64_t kChecksumSalt = 0xc5ec5a11d5a4d003ULL;

/// The trailer of a shard image: fold64 over the payload's little-endian
/// words, its tail bytes and its length. fold64 is injective in the word
/// and in the state, so a change confined to one word (any single-bit flip)
/// always changes the checksum.
std::uint64_t checksum(std::string_view payload) {
  std::uint64_t state = kChecksumSalt;
  BinaryReader in(payload);
  while (in.remaining() >= 8) fold64(state, in.u64());
  while (!in.at_end()) fold64(state, in.u8());
  fold64(state, payload.size());
  return state;
}

[[noreturn]] void fail(const std::string& context, const std::string& what) {
  throw std::runtime_error((context.empty() ? std::string("shard")
                                            : "shard '" + context + "'") +
                           ": " + what);
}

// ---- encoding -------------------------------------------------------------

void encode_cell_key(BinaryWriter& out, const CellKey& key) {
  out.u8(static_cast<std::uint8_t>(key.algorithm));
  out.u8(static_cast<std::uint8_t>(key.family));
  out.u8(static_cast<std::uint8_t>(key.scheduler));
  out.u64(key.node_count);
  out.u64(key.agent_count);
  out.u64(key.symmetry);
  out.u8(static_cast<std::uint8_t>(key.problem.kind));
  out.u64(key.problem.gather_g);
}

void encode_sketch(BinaryWriter& out, const QuantileSketch& sketch) {
  // An empty sketch's stored minimum is the uint64 sentinel (min() masks it
  // to 0 for reporting); from_entries validates against the raw form.
  out.u64(sketch.empty() ? std::numeric_limits<std::uint64_t>::max()
                         : sketch.min());
  out.u64(sketch.max());
  out.u64(sketch.entries().size());
  for (const QuantileSketch::Entry& entry : sketch.entries()) {
    out.u16(entry.bucket);
    out.u64(entry.count);
  }
}

void encode_samples(BinaryWriter& out, const FailureSamples& samples) {
  out.u64(samples.size());
  for (const auto& [index, text] : samples) {
    out.u64(index);
    out.str(text);
  }
}

// ---- decoding (every field validated: a corrupt or hand-edited shard file
// must fail the merge loudly, never fold garbage into a sweep) -------------

constexpr std::uint64_t kAlgorithmCount =
    static_cast<std::uint64_t>(core::Algorithm::DisperseRing) + 1;
constexpr std::uint64_t kConfigFamilyCount =
    static_cast<std::uint64_t>(ConfigFamily::Uniform) + 1;
constexpr std::uint64_t kProblemCount =
    static_cast<std::uint64_t>(core::Problem::Disperse) + 1;

/// Guards a count prefix against the bytes that must back it, so a corrupt
/// length cannot drive a multi-gigabyte reserve before the reader trips on
/// truncation.
std::size_t checked_count(BinaryReader& in, const std::string& context,
                          std::uint64_t count, std::size_t min_entry_bytes,
                          const char* what) {
  if (count > in.remaining() / min_entry_bytes) {
    fail(context, std::string(what) + " count " + std::to_string(count) +
                      " exceeds the bytes that could back it");
  }
  return static_cast<std::size_t>(count);
}

CellKey decode_cell_key(BinaryReader& in, const std::string& context) {
  CellKey key{};
  const std::uint8_t algorithm = in.u8();
  const std::uint8_t family = in.u8();
  const std::uint8_t scheduler = in.u8();
  if (algorithm >= kAlgorithmCount) fail(context, "unknown algorithm value");
  if (family >= kConfigFamilyCount) fail(context, "unknown family value");
  if (scheduler >= sim::kSchedulerKindCount) {
    fail(context, "unknown scheduler value");
  }
  key.algorithm = static_cast<core::Algorithm>(algorithm);
  key.family = static_cast<ConfigFamily>(family);
  key.scheduler = static_cast<sim::SchedulerKind>(scheduler);
  key.node_count = static_cast<std::size_t>(in.u64());
  key.agent_count = static_cast<std::size_t>(in.u64());
  key.symmetry = static_cast<std::size_t>(in.u64());
  const std::uint8_t problem = in.u8();
  if (problem >= kProblemCount) fail(context, "unknown problem value");
  key.problem.kind = static_cast<core::Problem>(problem);
  key.problem.gather_g = static_cast<std::size_t>(in.u64());
  return key;
}

QuantileSketch decode_sketch(BinaryReader& in, const std::string& context) {
  const std::uint64_t min_value = in.u64();
  const std::uint64_t max_value = in.u64();
  const std::size_t count =
      checked_count(in, context, in.u64(), 10, "sketch entry");
  std::vector<QuantileSketch::Entry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    QuantileSketch::Entry entry;
    entry.bucket = in.u16();
    entry.count = in.u64();
    entries.push_back(entry);
  }
  try {
    return QuantileSketch::from_entries(std::move(entries), min_value,
                                        max_value);
  } catch (const std::invalid_argument& error) {
    fail(context, std::string("invalid sketch state: ") + error.what());
  }
}

FailureSamples decode_samples(BinaryReader& in, const std::string& context) {
  const std::size_t count =
      checked_count(in, context, in.u64(), 16, "failure sample");
  FailureSamples samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t index = static_cast<std::size_t>(in.u64());
    if (!samples.empty() && index <= samples.back().first) {
      fail(context, "failure samples not strictly ascending by index");
    }
    samples.emplace_back(index, in.str());
  }
  return samples;
}

CellStats decode_cell_stats(BinaryReader& in, const std::string& context) {
  CellStats stats;
  stats.runs = static_cast<std::size_t>(in.u64());
  stats.successes = static_cast<std::size_t>(in.u64());
  stats.moves_sum = in.u64();
  stats.makespan_sum = in.u64();
  stats.memory_bits_sum = in.u64();
  stats.actions_sum = in.u64();
  if (stats.successes > stats.runs) fail(context, "successes exceed runs");
  stats.failure_samples = decode_samples(in, context);
  stats.moves_sketch = decode_sketch(in, context);
  stats.makespan_sketch = decode_sketch(in, context);
  if (stats.moves_sketch.total() != stats.runs ||
      stats.makespan_sketch.total() != stats.runs) {
    fail(context, "sketch totals disagree with the cell's run count");
  }
  return stats;
}

}  // namespace

std::uint64_t grid_fingerprint(const CampaignGrid& grid) {
  // Everything a merge must agree on, nothing a merge may ignore: the
  // cell expansion already folds the whole grid (axes, feasibility skips),
  // and the scenarios themselves are a pure function of (cell, repetition,
  // base_seed, sim options).
  const std::vector<CellKey> cells = expand_cells(grid);
  std::uint64_t state = kFingerprintSalt;
  fold64(state, cells.size());
  for (const CellKey& key : cells) fold_cell_key(state, key);
  fold64(state, grid.seeds);
  fold64(state, grid.base_seed);
  fold64(state, grid.sim_options.record_events ? 1 : 0);
  fold64(state, grid.sim_options.max_actions);
  grid.sim_options.faults.fold_into(state);
  return state;
}

std::string encode_shard(const ShardFile& shard) {
  BinaryWriter out;
  out.u32(ShardFile::kMagic);
  out.u32(ShardFile::kVersion);
  out.u64(shard.fingerprint);
  out.u64(shard.scenario_total);
  out.u64(shard.range_begin);
  out.u64(shard.range_end);
  out.u64(shard.aggregate.scenario_hash);
  out.u64(shard.aggregate.failures);
  encode_samples(out, shard.aggregate.failure_samples);
  out.u64(shard.aggregate.cells.size());
  for (const auto& [key, stats] : shard.aggregate.cells) {
    encode_cell_key(out, key);
    out.u64(stats.runs);
    out.u64(stats.successes);
    out.u64(stats.moves_sum);
    out.u64(stats.makespan_sum);
    out.u64(stats.memory_bits_sum);
    out.u64(stats.actions_sum);
    encode_samples(out, stats.failure_samples);
    encode_sketch(out, stats.moves_sketch);
    encode_sketch(out, stats.makespan_sketch);
  }
  out.u64(checksum(out.bytes()));
  return out.take();
}

ShardFile decode_shard(std::string_view bytes, const std::string& context) {
  BinaryReader header(bytes, context);
  // The "UDS" prefix alone identifies a shard file, so a file of another
  // version fails by its version number; the checksum covers the digit.
  constexpr std::uint32_t kPrefixMask = 0x00ffffffu;
  if ((header.u32() & kPrefixMask) != (ShardFile::kMagic & kPrefixMask)) {
    fail(context, "bad magic (not a shard file)");
  }
  const std::uint32_t version = header.u32();
  if (version != ShardFile::kVersion) {
    fail(context, "unsupported shard version " + std::to_string(version) +
                      " (this build reads version " +
                      std::to_string(ShardFile::kVersion) + ")");
  }
  if (header.remaining() < 8) fail(context, "truncated before the checksum");
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  if (BinaryReader(bytes.substr(payload.size())).u64() != checksum(payload)) {
    fail(context, "checksum mismatch");
  }
  BinaryReader in(payload.substr(8), context);
  ShardFile shard;
  shard.fingerprint = in.u64();
  shard.scenario_total = in.u64();
  shard.range_begin = in.u64();
  shard.range_end = in.u64();
  if (shard.range_begin > shard.range_end ||
      shard.range_end > shard.scenario_total) {
    fail(context, "scenario range [" + std::to_string(shard.range_begin) +
                      ", " + std::to_string(shard.range_end) +
                      ") is inconsistent with a total of " +
                      std::to_string(shard.scenario_total));
  }
  shard.aggregate.scenario_hash = in.u64();
  shard.aggregate.failures = static_cast<std::size_t>(in.u64());
  shard.aggregate.failure_samples = decode_samples(in, context);
  const std::size_t cell_count =
      checked_count(in, context, in.u64(), 76, "cell");
  std::uint64_t runs_covered = 0;
  for (std::size_t i = 0; i < cell_count; ++i) {
    CellKey key = decode_cell_key(in, context);
    if (!shard.aggregate.cells.empty() &&
        !(shard.aggregate.cells.rbegin()->first < key)) {
      fail(context, "cells not strictly ascending by key");
    }
    CellStats stats = decode_cell_stats(in, context);
    runs_covered += stats.runs;
    shard.aggregate.cells.emplace_hint(shard.aggregate.cells.end(),
                                       std::move(key), std::move(stats));
  }
  if (runs_covered != shard.range_end - shard.range_begin) {
    fail(context, "cell run counts sum to " + std::to_string(runs_covered) +
                      " but the covered range holds " +
                      std::to_string(shard.range_end - shard.range_begin) +
                      " scenarios");
  }
  in.expect_end();
  return shard;
}

void write_shard_file(const std::string& path, const ShardFile& shard) {
  if (!write_binary_file_atomic(path, encode_shard(shard))) {
    throw std::runtime_error("shard: failed to write '" + path +
                             "' (directory missing or disk full?)");
  }
}

ShardFile load_shard_file(const std::string& path) {
  const std::optional<std::string> bytes = read_binary_file(path);
  if (!bytes) {
    throw std::runtime_error("shard: cannot read '" + path + "'");
  }
  return decode_shard(*bytes, path);
}

ShardFile run_campaign_shard(const CampaignGrid& grid,
                             const CampaignOptions& options,
                             std::size_t shard_index,
                             std::size_t shard_count) {
  if (shard_count == 0 || shard_index >= shard_count) {
    throw std::invalid_argument(
        "run_campaign_shard: shard index " + std::to_string(shard_index) +
        " out of range for " + std::to_string(shard_count) + " shards");
  }
  const std::size_t total = expansion_size(grid);
  // [i·S/N, (i+1)·S/N): the standard exact tiling — every scenario lands in
  // exactly one shard, sizes differ by at most one scenario.
  const std::size_t begin = shard_index * total / shard_count;
  const std::size_t end = (shard_index + 1) * total / shard_count;

  ShardFile shard;
  shard.fingerprint = grid_fingerprint(grid);
  shard.scenario_total = total;
  shard.range_begin = begin;
  shard.range_end = begin;  // advances with the watermark

  std::size_t watermark = begin;
  const bool durable = !options.checkpoint_path.empty();
  if (durable) {
    // Resume: an existing checkpoint must be OUR checkpoint — same grid
    // (fingerprint), same shard slice — or resuming would silently
    // fold someone else's scenarios into this sweep.
    if (const std::optional<std::string> bytes =
            read_binary_file(options.checkpoint_path)) {
      ShardFile saved = decode_shard(*bytes, options.checkpoint_path);
      if (saved.fingerprint != shard.fingerprint) {
        throw std::runtime_error(
            "shard: checkpoint '" + options.checkpoint_path +
            "' belongs to a different grid (fingerprint mismatch); "
            "delete it or point the resume at the original sweep");
      }
      if (saved.scenario_total != total || saved.range_begin != begin ||
          saved.range_end > end) {
        throw std::runtime_error(
            "shard: checkpoint '" + options.checkpoint_path + "' covers [" +
            std::to_string(saved.range_begin) + ", " +
            std::to_string(saved.range_end) +
            ") which is not a prefix of this shard's range [" +
            std::to_string(begin) + ", " + std::to_string(end) + ")");
      }
      watermark = static_cast<std::size_t>(saved.range_end);
      shard.range_end = watermark;
      shard.aggregate = std::move(saved.aggregate);
    }
  }

  // Watermark blocks are just another partition of [begin, end): each block
  // folds through the same run_campaign_range engine and the same
  // commutative merge, so the final bytes cannot depend on where (or how
  // often) the checkpoints landed — or on a kill between two of them.
  const std::size_t block = options.checkpoint_every_scenarios == 0
                                ? (end > watermark ? end - watermark : 1)
                                : options.checkpoint_every_scenarios;
  std::size_t checkpoint_writes = 0;
  while (watermark < end) {
    const std::size_t next = std::min(end, watermark + block);
    run_campaign_range(grid, options, watermark, next, shard.aggregate);
    watermark = next;
    shard.range_end = watermark;
    if (durable) {
      write_shard_file(options.checkpoint_path, shard);
      ++checkpoint_writes;
    }
  }
  if (durable && checkpoint_writes == 0) {
    // Empty (or fully-resumed) shard: still leave a complete file behind —
    // the caller asked for durable output.
    write_shard_file(options.checkpoint_path, shard);
  }
  return shard;
}

CampaignResult merge_shards(std::vector<ShardFile> shards, bool allow_partial) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_shards: no shard files given");
  }
  std::sort(shards.begin(), shards.end(),
            [](const ShardFile& a, const ShardFile& b) {
              return a.range_begin != b.range_begin
                         ? a.range_begin < b.range_begin
                         : a.range_end < b.range_end;
            });
  const ShardFile& first = shards.front();
  for (const ShardFile& shard : shards) {
    if (shard.fingerprint != first.fingerprint) {
      throw std::runtime_error(
          "merge_shards: fingerprint mismatch — the shards come from "
          "different grids and cannot be merged");
    }
    if (shard.scenario_total != first.scenario_total) {
      throw std::runtime_error(
          "merge_shards: shard headers disagree on the scenario total "
          "despite matching fingerprints (corrupt shard set)");
    }
  }
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    covered += shards[i].range_end - shards[i].range_begin;
    if (i + 1 < shards.size() &&
        shards[i].range_end > shards[i + 1].range_begin) {
      // Never merge through an overlap: the duplicated scenarios would be
      // double-counted in every sum, sketch and failure sample.
      throw std::runtime_error(
          "merge_shards: shard ranges [" +
          std::to_string(shards[i].range_begin) + ", " +
          std::to_string(shards[i].range_end) + ") and [" +
          std::to_string(shards[i + 1].range_begin) + ", " +
          std::to_string(shards[i + 1].range_end) +
          ") overlap — the same scenarios were submitted twice");
    }
  }
  if (!allow_partial && covered != first.scenario_total) {
    throw std::runtime_error(
        "merge_shards: shards cover " + std::to_string(covered) + " of " +
        std::to_string(first.scenario_total) +
        " scenarios (gap or missing shard); pass allow_partial to merge a "
        "partial sweep anyway");
  }

  CampaignAccumulator merged;
  for (ShardFile& shard : shards) {
    // Ascending range order (the sort above): the folds are commutative so
    // any order would do, but a deterministic one keeps even hypothetical
    // order-sensitive future fields reproducible.
    merge_accumulators(merged, std::move(shard.aggregate));
  }

  CampaignResult result;
  result.scenario_count = static_cast<std::size_t>(covered);
  result.cells = std::move(merged.cells);
  result.scenario_hash = merged.scenario_hash;
  result.failures = merged.failures;
  result.failure_samples.reserve(merged.failure_samples.size());
  for (auto& [index, text] : merged.failure_samples) {
    static_cast<void>(index);
    result.failure_samples.push_back(std::move(text));
  }
  return result;
}

}  // namespace udring::exp
