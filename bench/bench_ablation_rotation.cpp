// bench_ablation_rotation — ablation of the lexicographically-minimal-
// rotation primitive that both Algorithm 1 and Algorithm 6 run in their
// deployment phases: Booth's O(k) algorithm vs the naive O(k²) scan.
//
// For the paper's complexity accounting this is "local computation" (free in
// ideal time). The report cross-checks that both implementations agree on
// every instance; a disagreement fails the report.

#include "core/distance_sequence.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;
using core::DistanceSeq;

DistanceSeq random_sequence(std::size_t length, std::size_t alphabet, Rng& rng) {
  DistanceSeq d(length);
  for (auto& value : d) {
    value = 1 + static_cast<std::size_t>(rng.below(alphabet));
  }
  return d;
}

void print_report() {
  std::cout << "Ablation: minimal-rotation (base node selection) — Booth O(k)\n"
               "vs naive O(k²). Correctness cross-check.\n";
  print_section(std::cout, "Cross-check");
  Table table({"k", "alphabet", "instances", "agreements"});
  for (const std::size_t k : {16u, 256u, 4096u}) {
    for (const std::size_t alphabet : {2u, 16u}) {
      Rng rng(k * 17 + alphabet);
      std::size_t agree = 0;
      const std::size_t instances = 200;
      for (std::size_t i = 0; i < instances; ++i) {
        const DistanceSeq d = random_sequence(k, alphabet, rng);
        if (core::min_rotation_booth(d) == core::min_rotation_naive(d)) ++agree;
      }
      expect(agree == instances, "Booth and the naive scan disagree at k = " +
                                     std::to_string(k));
      table.add_row({Table::num(k), Table::num(alphabet), Table::num(instances),
                     Table::num(agree)});
    }
  }
  std::cout << table << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  return run_report(argc, argv, print_report);
}
