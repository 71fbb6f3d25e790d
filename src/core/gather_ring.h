// udring/core/gather_ring.h
//
// g-partial gathering on the token ring (Shibata et al.'s companion problem
// line to uniform deployment): the agents must end with every occupied node
// hosting at least g co-located, halted agents.
//
// Partial gathering sits strictly between rendezvous (g = k) and "stay
// put" (g = 1): it does not require full symmetry breaking, only enough to
// split the agents into groups of >= g. That makes it solvable from many
// periodic configurations rendezvous cannot handle — but not all:
//
//   Let D be an agent's recorded distance sequence over one circuit and
//   p = period(D): the k agents fall into p rank classes (rotation ranks of
//   D), each class holding k/p agents at mutually symmetric positions.
//   Under a synchronous schedule, same-class agents behave identically and
//   their final positions stay translates of one another — so any single
//   node receives at most one agent per class, i.e. at most p agents.
//   With p < g no node can reach g occupants, and the problem is
//   unsolvable by any deterministic algorithm; the agent reports this and
//   halts at home (mirroring the rendezvous baseline's periodic-view
//   detection). With p >= g, the ranks are partitioned into contiguous
//   blocks of >= g classes and each block gathers at its lowest rank's
//   base node, giving every meeting point >= g co-located agents.
//
// Protocol (each agent knows k and g):
//   1. explore — drop the token, record the distance sequence D over one
//      full circuit (k token sightings); compute p = period(D) and the
//      Booth rank r = min_rotation(D) in [0, p).
//   2. gather — with G = floor(p / g) groups, the agent's group is
//      j = min(r / g, G - 1) (the last group absorbs the remainder ranks),
//      and it walks forward to the home of the rank-(j*g) agent of its
//      block: sum(D[0 .. r - j*g)) moves. Group sizes are g (last: up to
//      2g - 1) rank classes, each class holding k/p agents.
//
// Moves are O(k + n) per agent; memory is O(k log n) bits — the distance
// sequence dominates, exactly as in the rendezvous baseline.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/distance_sequence.h"
#include "core/problem.h"
#include "sim/agent.h"

namespace udring::core {

class PartialGatherAgent final : public sim::CopyableProgram<PartialGatherAgent>,
                                 public UnsolvabilityAware {
 public:
  enum Phase : std::size_t { kExplore = 0, kGather = 1 };

  /// `k` agents, groups of at least `g` (g = 0 is normalized to 1: plain
  /// termination at home).
  PartialGatherAgent(std::size_t k, std::size_t g)
      : k_(k), g_(g == 0 ? 1 : g) {}

  [[nodiscard]] std::string_view name() const override { return "gather-ring"; }
  [[nodiscard]] std::size_t compute_memory_bits() const override;
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::vector<std::string_view> phase_names() const override {
    return {"explore", "gather"};
  }

  /// True if the agent proved the instance unsolvable for this g
  /// (period(D) < g: fewer symmetry classes than the group size).
  [[nodiscard]] bool detected_unsolvable() const noexcept override {
    return unsolvable_;
  }

 private:
  sim::Request act(sim::AgentContext& ctx) override;

  std::size_t k_;
  std::size_t g_;
  DistanceSeq d_;
  Distance d_max_ = 0;  // max(d_), 0 while empty; derived, so not hashed
  std::size_t n_ = 0;
  bool unsolvable_ = false;

  // Await-spanning locals, kept out of state_hash and memory_bits like the
  // resume point (see sim/agent.h).
  std::size_t dis_ = 0;         // distance walked toward the next token node
  std::size_t steps_left_ = 0;  // gathering moves still to make
};

}  // namespace udring::core
