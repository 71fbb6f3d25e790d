// bench/support/bench_common.h
//
// Shared plumbing for the per-table/per-figure report binaries, a thin
// veneer over the exp/campaign engine: configuration families, seed-averaged
// cell measurements and grid sweeps all come from exp::, so every report is
// a campaign and parallelizes/reproduces like one.
//
// Every report is also a check. It prints its whole paper-style report (the
// reproduction artifact) and counts each claim behind it, through `check`
// for a yes/NO table cell or `expect` for a claim without one; `run_report`
// then exits 1 if any check failed. ctest runs every report under the
// `report` label.

#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
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

/// Checks counted as failed so far in this report.
inline std::size_t failed_checks = 0;

/// Counts one check and returns its table cell: `pass`, or `fail` when the
/// check failed.
inline const char* check(bool ok, const char* pass = "yes",
                         const char* fail = "NO") {
  if (!ok) ++failed_checks;
  return ok ? pass : fail;
}

/// Counts one check that has no table cell of its own, naming it on stderr
/// when it fails.
inline void expect(bool ok, std::string_view claim) {
  if (ok) return;
  ++failed_checks;
  std::cerr << "check failed: " << claim << '\n';
}

/// True when UDRING_REPORT_SMOKE is set (ctest sets it for every report):
/// the reports that take seconds under sanitizers shrink to a smoke size.
[[nodiscard]] inline bool smoke() {
  return std::getenv("UDRING_REPORT_SMOKE") != nullptr;
}

/// Standard main body. A report takes no arguments, so a stale flag is a
/// usage error (exit 2) instead of a silent full run. Otherwise it prints
/// the whole report and exits 1 if any check failed.
inline int run_report(int argc, char** argv, void (*print_report)()) {
  if (argc > 1) {
    std::cerr << argv[0] << ": a report takes no arguments (got '" << argv[1]
              << "')\n";
    return 2;
  }
  print_report();
  if (failed_checks == 0) return 0;
  std::cerr << argv[0] << ": " << failed_checks << " check(s) failed\n";
  return 1;
}

}  // namespace udring::bench
