// bench_fig2_quality — reproduces Figure 2's definition of uniform
// deployment as a measurable quantity: after each algorithm runs, the gaps
// between adjacent agents must be exactly ⌊n/k⌋ or ⌈n/k⌉, with exactly
// n mod k large gaps — including when k ∤ n (§3.1.1).
//
// We report, per (n, k) including awkward non-divisible pairs, the final gap
// histogram and the worst-case deviation from n/k before vs after
// deployment. The paper's figure shows the ideal picture; the report shows
// the algorithms actually reach it from random starts. The `exact` column is
// the check: every run succeeds, every final gap is ⌊n/k⌋ or ⌈n/k⌉, and
// #ceil = seeds · (n mod k).

#include <algorithm>
#include <map>
#include <span>

#include "sim/checker.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

void print_report() {
  std::cout << "Reproduction of Fig 2 (exactness of uniform deployment), including\n"
               "n % k != 0 instances. 5 random seeds per row.\n";

  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {16, 4}, {14, 4}, {23, 7}, {60, 12}, {100, 13}, {128, 16}, {257, 32}};

  // One campaign over every algorithm × instance; the scenario sink keeps
  // each scenario's outcome and final staying positions in its expansion
  // slot. The initial configurations are re-derived from the engine's
  // substream contract (scenario_homes), so the before/after gap comparison
  // needs no side channel.
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem,
                     core::Algorithm::UnknownRelaxed};
  grid.instances = cases;
  grid.seeds = 5;
  struct Outcome {
    exp::Scenario scenario;
    bool success = false;
    std::vector<std::size_t> final_positions;
  };
  std::vector<Outcome> outcomes(exp::expansion_size(grid));
  exp::CampaignOptions options;
  options.scenario_sink = [&outcomes](const exp::Scenario& s,
                                      const exp::ScenarioResult& r) {
    const std::span<const std::size_t> positions = r.final_positions();
    outcomes[s.index] = {s, r.success, {positions.begin(), positions.end()}};
  };
  (void)exp::run_campaign_streaming(grid, options);

  for (const auto& [algorithm, label] :
       {std::make_pair(core::Algorithm::KnownKFull, "Algorithm 1"),
        std::make_pair(core::Algorithm::KnownKLogMem, "Algorithms 2+3"),
        std::make_pair(core::Algorithm::UnknownRelaxed, "Algorithms 4-6")}) {
    print_section(std::cout, label);
    Table table({"n", "k", "floor gap", "ceil gap", "#floor", "#ceil",
                 "expected #ceil", "max dev before", "max dev after", "exact"});
    for (const auto& [n, k] : cases) {
      std::map<std::size_t, std::size_t> histogram;
      double worst_before = 0;
      bool all_success = true;
      for (const Outcome& outcome : outcomes) {
        const exp::Scenario& scenario = outcome.scenario;
        if (scenario.algorithm != algorithm || scenario.node_count != n ||
            scenario.agent_count != k) {
          continue;
        }
        for (const std::size_t gap :
             sim::ring_gaps(exp::scenario_homes(grid, scenario), n)) {
          worst_before = std::max(
              worst_before, std::abs(static_cast<double>(gap) -
                                     static_cast<double>(n) / static_cast<double>(k)));
        }
        all_success = all_success && outcome.success;
        for (const std::size_t gap :
             sim::ring_gaps(outcome.final_positions, n)) {
          ++histogram[gap];
        }
      }
      const std::size_t floor_gap = n / k;
      const std::size_t ceil_gap = floor_gap + (n % k == 0 ? 0 : 1);
      const std::size_t ceil_count =
          ceil_gap == floor_gap ? std::size_t{0} : histogram[ceil_gap];
      const std::size_t expected_ceil = grid.seeds * (n % k);
      const bool only_floor_or_ceil =
          std::ranges::all_of(histogram, [&](const auto& entry) {
            return entry.first == floor_gap || entry.first == ceil_gap;
          });
      const double worst_after =
          std::max(std::abs(static_cast<double>(floor_gap) -
                            static_cast<double>(n) / static_cast<double>(k)),
                   std::abs(static_cast<double>(ceil_gap) -
                            static_cast<double>(n) / static_cast<double>(k)));
      table.add_row({Table::num(n), Table::num(k), Table::num(floor_gap),
                     Table::num(ceil_gap), Table::num(histogram[floor_gap]),
                     Table::num(ceil_count), Table::num(expected_ceil),
                     Table::num(worst_before, 2), Table::num(worst_after, 2),
                     check(all_success && only_floor_or_ceil &&
                           ceil_count == expected_ceil)});
    }
    std::cout << table;
  }
  std::cout << "\nEvery gap lands on ⌊n/k⌋ or ⌈n/k⌉ and the ⌈⌉-count equals\n"
               "seeds · (n mod k): the §3.1.1 remainder rule is exact, not\n"
               "approximate (contrast with the ε-approximate deployments of the\n"
               "Look-Compute-Move literature discussed in §1.2).\n";
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
