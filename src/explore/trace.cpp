#include "explore/trace.h"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "util/cli.h"

namespace udring::explore {

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::invalid_argument("ScheduleTrace::parse: " + what);
}

/// `token` as an unsigned decimal that fits T, through the strict parser
/// every CLI flag uses (udring::parse_unsigned: digits only — no sign, no
/// junk, no overflow); nullopt otherwise. `>>` into an unsigned type would
/// accept "-1" and wrap it.
template <typename T>
[[nodiscard]] std::optional<T> to_unsigned(std::string_view token) {
  try {
    const std::uint64_t value = parse_unsigned(token, "trace");
    if (std::in_range<T>(value)) return static_cast<T>(value);
  } catch (const std::invalid_argument&) {
  }
  return std::nullopt;
}

/// The one numeric value of a scalar key; anything after it is an error.
template <typename T = std::uint64_t>
[[nodiscard]] T parse_scalar(std::istringstream& line, const std::string& key) {
  std::string token;
  if (!(line >> token)) malformed("bad value for '" + key + "'");
  const std::optional<T> value = to_unsigned<T>(token);
  if (!value) malformed("bad value '" + token + "' for '" + key + "'");
  std::string rest;
  if (line >> rest) malformed("trailing '" + rest + "' after '" + key + "'");
  return *value;
}

/// Appends every remaining token of the line: a corrupt token in the middle
/// of a homes/choices list is a parse error, never a silent truncation (a
/// truncated choice list would replay a different schedule).
template <typename T>
void parse_list(std::istringstream& line, const std::string& key,
                std::vector<T>& out) {
  std::string token;
  while (line >> token) {
    const std::optional<T> value = to_unsigned<T>(token);
    if (!value) malformed("bad token '" + token + "' in '" + key + "' list");
    out.push_back(*value);
  }
}

/// Parses one "A@B" token (crash agent@action).
/// Both halves must be fully numeric — a mangled token is a parse error.
[[nodiscard]] std::pair<std::size_t, std::size_t> parse_at_pair(
    const std::string& token, const std::string& key) {
  const std::size_t at = token.find('@');
  if (at != std::string::npos) {
    const std::string_view text(token);
    const auto first = to_unsigned<std::size_t>(text.substr(0, at));
    const auto second = to_unsigned<std::size_t>(text.substr(at + 1));
    if (first && second) return {*first, *second};
  }
  malformed("bad token '" + token + "' in '" + key + "' (want A@B)");
}

}  // namespace

const std::vector<core::Algorithm>& all_algorithms() {
  static const std::vector<core::Algorithm> algorithms = {
      core::Algorithm::KnownKFull,    core::Algorithm::KnownNFull,
      core::Algorithm::KnownKLogMem,  core::Algorithm::KnownKLogMemStrict,
      core::Algorithm::UnknownRelaxed, core::Algorithm::Rendezvous,
      core::Algorithm::GatherRing,    core::Algorithm::DisperseRing,
  };
  return algorithms;
}

core::Algorithm algorithm_from_name(std::string_view name) {
  for (const core::Algorithm algorithm : all_algorithms()) {
    if (core::to_string(algorithm) == name) return algorithm;
  }
  throw std::invalid_argument("algorithm_from_name: unknown algorithm '" +
                              std::string(name) + "'");
}

std::string ScheduleTrace::to_text() const {
  std::ostringstream out;
  out << kMagic << " v" << kVersion << '\n';
  out << "algorithm " << core::to_string(algorithm) << '\n';
  out << "nodes " << node_count << '\n';
  out << "homes";
  for (const std::size_t home : homes) out << ' ' << home;
  out << '\n';
  if (!topology.empty() && topology != "ring") out << "topology " << topology << '\n';
  if (problem.kind != core::Problem::Auto) {
    out << "problem " << core::to_string(problem.kind) << '\n';
    if (problem.kind == core::Problem::Gather) {
      out << "gather-g " << problem.gather_g << '\n';
    }
  }
  if (!generator.empty()) out << "generator " << generator << '\n';
  out << "seed " << seed << '\n';
  // The non-FIFO relaxation keeps the keys (and the position) the pre-fault
  // corpus uses.
  if (faults.non_fifo) out << "fault-non-fifo 1\n";
  if (faults.non_fifo_min_phase != 0) {
    out << "fault-min-phase " << faults.non_fifo_min_phase << '\n';
  }
  // Structured fault keys, canonical order: alphabetical, lists normalized.
  // Emission depends only on the plan's *content*, never on the order the
  // producer filled it in, so re-recording a trace reproduces it byte-for-
  // byte.
  {
    sim::FaultPlan canonical = faults;
    canonical.normalize();
    if (!canonical.crashes.empty()) {
      out << "fault-crashes";
      for (const sim::CrashFault& crash : canonical.crashes) {
        out << ' ' << crash.agent << '@' << crash.at_action;
      }
      out << '\n';
    }
    if (!canonical.rewire_at.empty()) {
      out << "fault-rewires";
      for (const std::size_t at : canonical.rewire_at) out << ' ' << at;
      out << '\n';
    }
  }
  if (max_actions != 0) out << "max-actions " << max_actions << '\n';
  if (!note.empty()) out << "note " << note << '\n';
  out << "choices";
  for (const std::uint32_t choice : choices) out << ' ' << choice;
  out << '\n';
  out << "digest " << expected_digest << '\n';
  out << "end\n";
  return out.str();
}

ScheduleTrace ScheduleTrace::parse(std::string_view text) {
  ScheduleTrace trace;
  std::istringstream in{std::string(text)};
  std::string line;

  if (!std::getline(in, line)) malformed("empty input");
  {
    std::istringstream header(line);
    std::string magic, version;
    header >> magic >> version;
    if (magic != kMagic) malformed("missing '" + std::string(kMagic) + "' header");
    if (version != "v1") malformed("unsupported version '" + version + "'");
  }

  bool saw_algorithm = false, saw_choices = false, saw_digest = false,
       saw_end = false;
  std::unordered_set<std::string> seen_keys;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    // Every key appears at most once: a duplicate (a botched hand edit, a
    // merge conflict) would silently concatenate a list or overwrite a
    // scalar and replay a schedule matching neither original.
    if (key != "end" && !seen_keys.insert(key).second) {
      malformed("duplicate key '" + key + "'");
    }
    if (key == "algorithm") {
      std::string name;
      fields >> name;
      trace.algorithm = algorithm_from_name(name);
      saw_algorithm = true;
    } else if (key == "nodes") {
      trace.node_count = parse_scalar<std::size_t>(fields, key);
    } else if (key == "homes") {
      parse_list(fields, key, trace.homes);
    } else if (key == "topology") {
      fields >> trace.topology;
    } else if (key == "problem") {
      std::string name;
      fields >> name;
      trace.problem.kind = core::problem_from_name(name);
      // A bare non-gather "problem" line carries no parameter; normalize g
      // the way resolve_problem does so parse(to_text(x)) == x.
      if (trace.problem.kind != core::Problem::Gather) trace.problem.gather_g = 0;
    } else if (key == "gather-g") {
      trace.problem.gather_g = parse_scalar<std::size_t>(fields, key);
    } else if (key == "generator") {
      fields >> trace.generator;
    } else if (key == "seed") {
      trace.seed = parse_scalar(fields, key);
    } else if (key == "fault-non-fifo") {
      trace.faults.non_fifo = parse_scalar(fields, key) != 0;
    } else if (key == "fault-min-phase") {
      trace.faults.non_fifo_min_phase = parse_scalar<std::size_t>(fields, key);
    } else if (key == "fault-crashes") {
      std::string token;
      while (fields >> token) {
        const auto [agent, at_action] = parse_at_pair(token, key);
        trace.faults.crashes.push_back(sim::CrashFault{agent, at_action});
      }
      if (trace.faults.crashes.empty()) malformed("empty '" + key + "' list");
    } else if (key == "fault-rewires") {
      parse_list(fields, key, trace.faults.rewire_at);
      if (trace.faults.rewire_at.empty()) malformed("empty '" + key + "' list");
    } else if (key == "max-actions") {
      trace.max_actions = parse_scalar<std::size_t>(fields, key);
    } else if (key == "note") {
      std::getline(fields, trace.note);
      if (!trace.note.empty() && trace.note.front() == ' ') trace.note.erase(0, 1);
    } else if (key == "choices") {
      parse_list(fields, key, trace.choices);
      saw_choices = true;
    } else if (key == "digest") {
      trace.expected_digest = parse_scalar(fields, key);
      saw_digest = true;
    } else if (key == "end") {
      saw_end = true;
      break;
    } else {
      malformed("unknown key '" + key + "'");
    }
  }
  if (!saw_end) malformed("missing 'end' terminator");
  if (!saw_algorithm) malformed("missing 'algorithm' line");
  if (!saw_choices) malformed("missing 'choices' line");
  if (!saw_digest) malformed("missing 'digest' line");
  if (trace.node_count == 0) malformed("missing or zero 'nodes'");
  if (trace.homes.empty()) malformed("missing 'homes'");
  if (trace.homes.size() > trace.node_count) malformed("more homes than nodes");
  std::unordered_set<std::size_t> distinct;
  for (const std::size_t home : trace.homes) {
    if (home >= trace.node_count) malformed("home node out of range");
    if (!distinct.insert(home).second) malformed("duplicate home node");
  }
  trace.faults.normalize();
  return trace;
}

}  // namespace udring::explore
