// bench_ablation_scheduler — schedule-sensitivity ablation (the Table 2
// execution model exercised from every direction): each algorithm under
// each fair scheduler family on the same instances.
//
// The paper's claims are quantified over all fair schedules; this bench
// verifies the *outcome* is schedule-invariant (uniform everywhere) and
// measures how much the *cost* moves: total moves are schedule-independent
// for the geometry-determined algorithms, while causal ideal time stretches
// under adversarial (priority/burst) schedules — asynchrony costs latency,
// never correctness.

#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

void print_report() {
  std::cout << "Scheduler ablation: every algorithm × every fair scheduler family\n"
               "(n = 192, k = 16; 5 seeds; same configurations per row).\n";

  // The full ablation is one campaign: algorithms × scheduler kinds on one
  // instance — the scheduler axis is a first-class grid dimension.
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem,
                     core::Algorithm::UnknownRelaxed};
  grid.schedulers = sim::all_scheduler_kinds();
  grid.instances = {{192, 16}};
  grid.seeds = 5;
  const exp::CampaignResult result = exp::run_campaign_streaming(grid);

  for (const auto& [algorithm, label] :
       {std::make_pair(core::Algorithm::KnownKFull, "Algorithm 1"),
        std::make_pair(core::Algorithm::KnownKLogMem, "Algorithms 2+3"),
        std::make_pair(core::Algorithm::UnknownRelaxed, "Algorithms 4-6")}) {
    print_section(std::cout, label);
    Table table({"scheduler", "moves", "causal time", "success"});
    for (const sim::SchedulerKind kind : sim::all_scheduler_kinds()) {
      const Averages avg = result.averages(
          {algorithm, ConfigFamily::RandomAny, kind, 192, 16, 1});
      table.add_row({std::string(sim::to_string(kind)), Table::num(avg.moves, 0),
                     Table::num(avg.makespan, 0),
                     check(avg.success_rate == 1.0)});
    }
    std::cout << table;
  }
  std::cout
      << "\nSuccess is 'yes' in every cell — the correctness claims really are\n"
         "schedule-invariant. Moves barely move (for Algorithm 1 they are\n"
         "identical across schedulers: targets are geometry-determined). The\n"
         "causal-time column is the interesting one: burst/priority adversaries\n"
         "serialize agents, so the critical path grows from ~3n toward the\n"
         "total-work bound — asynchrony is paid in latency, not in moves.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
