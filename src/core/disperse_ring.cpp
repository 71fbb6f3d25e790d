#include "core/disperse_ring.h"

#include <algorithm>

#include "core/memory_meter.h"

namespace udring::core {

sim::Request DisperseAgent::act(sim::AgentContext& ctx) {
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

  // Settle r nodes past the nearest forward base (rank-0) home; distinct
  // ranks off period-spaced bases give pairwise-distinct targets (see the
  // header argument).
  ctx.set_phase(kSettle);
  {
    const std::size_t rank = min_rotation(d_);
    steps_left_ = rank;
    for (std::size_t i = 0; i < rank; ++i) steps_left_ += d_[i];
  }
  for (; steps_left_ > 0; --steps_left_) {
    UDRING_AWAIT(ctx.move());
  }
  UDRING_END;
}

std::size_t DisperseAgent::compute_memory_bits() const {
  const std::uint64_t max_d = d_.empty() ? 1 : d_max_;
  return MemoryMeter{}
      .counter(k_)
      .array(d_.size(), std::max<std::uint64_t>(max_d, n_))
      .counter(n_)
      .bits();
}

std::uint64_t DisperseAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x4d15bULL, d_);  // "DISP"-ish tag
  h = hash_sequence(h, {n_});
  return h;
}

}  // namespace udring::core
