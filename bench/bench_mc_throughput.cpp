// bench_mc_throughput — the exhaustive model checker's own artifact.
//
// Reports, for a small verification grid, the closure walk's throughput
// (states/s and actions/s), dedup hit-rate and hash compaction's collision
// bound, serial and frontier-sharded. Both walks claim configurations in
// one visited store, so they expand the same closure and step each of its
// edges once; sharding buys parallel wall-clock for one state copy per
// shard root, and racing claims change only WHO expands a state, never the
// counts. Two checks fail the report: a serial verdict other than
// `verified`, and a sharded walk that leaves the serial closure or steps
// another number of actions.
//
// UDRING_REPORT_SMOKE selects the two smallest cells.

#include <chrono>

#include "mc/model_check.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

struct BenchCell {
  core::Algorithm algorithm;
  std::size_t n, k;
};

std::vector<BenchCell> bench_cells() {
  if (smoke()) {
    return {{core::Algorithm::KnownKFull, 8, 3},
            {core::Algorithm::KnownKLogMem, 8, 3}};
  }
  return {{core::Algorithm::KnownKFull, 10, 3},
          {core::Algorithm::KnownKFull, 12, 4},
          {core::Algorithm::KnownKFull, 24, 4},
          {core::Algorithm::KnownKLogMem, 8, 3},
          {core::Algorithm::KnownKLogMem, 10, 4},
          {core::Algorithm::KnownKLogMem, 20, 4}};
}

mc::CheckRequest cell_request(const BenchCell& cell) {
  mc::CheckRequest request;
  request.algorithm = cell.algorithm;
  request.node_count = cell.n;
  request.homes = gen::uniform_homes(cell.n, cell.k);
  return request;
}

double run_timed(const mc::CheckRequest& request, const mc::McOptions& options,
                 mc::ModelCheckReport& out) {
  const auto start = std::chrono::steady_clock::now();
  out = mc::check(request, options);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

std::string rate(double count, double ms) {
  return Table::num(ms > 0 ? 1000.0 * count / ms : 0.0, 0);
}

void print_report() {
  std::cout << "Model-checker throughput: exhaustive verification cells,\n"
               "serial (frontier=1) vs sharded (frontier=8, all cores).\n";

  print_section(std::cout, "Serial walk (the store grows with the closure)");
  Table serial_table({"algorithm", "n", "k", "wall ms", "states/s", "actions/s",
                      "dedup hit-rate", "verdict", "collision bound"});
  std::vector<mc::ModelCheckReport> serial_reports;
  std::vector<double> serial_ms_by_cell;
  for (const BenchCell& cell : bench_cells()) {
    mc::ModelCheckReport report;
    const double ms = run_timed(cell_request(cell), {}, report);
    serial_ms_by_cell.push_back(ms);
    const mc::McStats& s = report.stats;
    const double seen = static_cast<double>(s.states_expanded + s.states_deduped);
    serial_table.add_row(
        {std::string(core::to_string(cell.algorithm)), Table::num(cell.n),
         Table::num(cell.k), Table::num(ms, 2),
         rate(static_cast<double>(s.states_expanded), ms),
         rate(static_cast<double>(s.total_actions), ms),
         Table::num(seen > 0 ? static_cast<double>(s.states_deduped) / seen : 0,
                    3),
         report.verdict, mc::collision_bound(s.states_expanded)});
    expect(report.verdict == "verified",
           std::string(core::to_string(cell.algorithm)) + " n=" +
               std::to_string(cell.n) + " k=" + std::to_string(cell.k) +
               " verifies");
    serial_reports.push_back(std::move(report));
  }
  std::cout << serial_table;

  print_section(std::cout,
                "Frontier-sharded walk (one store, reserved before workers)");
  Table sharded_table({"algorithm", "n", "k", "wall ms", "shards", "states/s",
                       "dedup hit-rate", "speedup", "collision bound",
                       "same closure"});
  std::size_t i = 0;
  for (const BenchCell& cell : bench_cells()) {
    mc::McOptions options;
    options.frontier_target = 8;
    options.workers = 0;  // all cores
    mc::ModelCheckReport report;
    const double ms = run_timed(cell_request(cell), options, report);
    const mc::McStats& s = report.stats;
    const double seen = static_cast<double>(s.states_expanded + s.states_deduped);
    const double serial_ms = serial_ms_by_cell[i];
    const mc::ModelCheckReport& serial = serial_reports[i];
    const bool same_closure =
        report.verdict == serial.verdict &&
        s.states_expanded == serial.stats.states_expanded &&
        s.states_deduped == serial.stats.states_deduped &&
        s.total_actions == serial.stats.total_actions;
    sharded_table.add_row(
        {std::string(core::to_string(cell.algorithm)), Table::num(cell.n),
         Table::num(cell.k), Table::num(ms, 2), Table::num(s.shards),
         rate(static_cast<double>(s.states_expanded), ms),
         Table::num(seen > 0 ? static_cast<double>(s.states_deduped) / seen : 0,
                    3),
         Table::num(serial_ms / (ms > 0 ? ms : 1), 2),
         mc::collision_bound(s.states_expanded), check(same_closure)});
    ++i;
  }
  std::cout << sharded_table;

  std::cout << "\nBoth walks expand the same closure: the sharded walk's\n"
               "states, dedup counts and actions equal the serial walk's at\n"
               "any worker count, since every count is a function of the\n"
               "claimed closure and each edge is stepped once and undone\n"
               "once. Each shard starts from a copy of its root's state, so\n"
               "sharding re-executes no prefix. The collision bound is\n"
               "S^2/2^65 for S states expanded: the chance that two of the\n"
               "store's 64-bit keys merged two configurations.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
