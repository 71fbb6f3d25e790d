#include "core/gather_ring.h"

#include <algorithm>

#include "core/memory_meter.h"

namespace udring::core {

sim::Request PartialGatherAgent::act(sim::AgentContext& ctx) {
  UDRING_BEGIN;
  ctx.set_phase(kExplore);
  ctx.release_token();

  while (d_.size() < k_) {
    dis_ = 0;
    do {
      UDRING_AWAIT(ctx.move());
      ++dis_;
    } while (ctx.tokens_here() == 0);
    d_.push_back(dis_);
    d_max_ = std::max(d_max_, dis_);
    memory_changed();
  }
  n_ = sum(d_);
  memory_changed();

  {
    const std::size_t p = period(d_);
    if (p < g_) {
      // Fewer rank classes than the group size: no node can collect g
      // agents (see the header's impossibility argument). Report and stop at
      // home.
      unsolvable_ = true;
      memory_changed();
      return ctx.halt();
    }

    // Rank classes [0, p) split into G contiguous blocks of g (the last
    // block absorbs the p mod g remainder ranks). Every agent walks forward
    // to the home of its block's lowest-rank agent: rank r sits r token-gaps
    // behind its region's base (rank 0), so the rank-(j*g) home lies r - j*g
    // gaps ahead — sum of that many leading entries of D.
    ctx.set_phase(kGather);
    const std::size_t rank = min_rotation(d_);
    const std::size_t groups = p / g_;
    const std::size_t group = std::min(rank / g_, groups - 1);
    const std::size_t gaps_ahead = rank - group * g_;
    steps_left_ = 0;
    for (std::size_t i = 0; i < gaps_ahead; ++i) steps_left_ += d_[i];
  }
  for (; steps_left_ > 0; --steps_left_) {
    UDRING_AWAIT(ctx.move());
  }
  UDRING_END;
}

std::size_t PartialGatherAgent::compute_memory_bits() const {
  const std::uint64_t max_d = d_.empty() ? 1 : d_max_;
  return MemoryMeter{}
      .counter(k_)
      .counter(g_)
      .array(d_.size(), std::max<std::uint64_t>(max_d, n_))
      .counter(n_)
      .flag()
      .bits();
}

std::uint64_t PartialGatherAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x6a7485ULL, d_);  // "GAT"-ish tag
  h = hash_sequence(h, {g_, n_, static_cast<std::size_t>(unsolvable_)});
  return h;
}

}  // namespace udring::core
