#include "core/rendezvous.h"

#include <algorithm>

#include "core/memory_meter.h"

namespace udring::core {

sim::Request RendezvousAgent::act(sim::AgentContext& ctx) {
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

  if (is_periodic(d_)) {
    // Symmetric views: gathering is impossible (classical rendezvous lower
    // bound). Report and stop at home.
    unsolvable_ = true;
    memory_changed();
    return ctx.halt();
  }

  // Aperiodic: the lexicographically minimal rotation starts at a unique
  // agent; everyone walks to that agent's home node.
  ctx.set_phase(kGather);
  {
    const std::size_t rank = min_rotation(d_);
    steps_left_ = 0;
    for (std::size_t i = 0; i < rank; ++i) steps_left_ += d_[i];
  }
  for (; steps_left_ > 0; --steps_left_) {
    UDRING_AWAIT(ctx.move());
  }
  UDRING_END;
}

std::size_t RendezvousAgent::compute_memory_bits() const {
  const std::uint64_t max_d = d_.empty() ? 1 : d_max_;
  return MemoryMeter{}
      .counter(k_)
      .array(d_.size(), std::max<std::uint64_t>(max_d, n_))
      .counter(n_)
      .flag()
      .bits();
}

std::uint64_t RendezvousAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x52445aULL, d_);  // "RDZ"
  h = hash_sequence(h, {n_, static_cast<std::size_t>(unsolvable_)});
  return h;
}

}  // namespace udring::core
