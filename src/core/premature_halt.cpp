#include "core/premature_halt.h"

#include <algorithm>

#include "core/memory_meter.h"

namespace udring::core {

sim::Request PrematureHaltAgent::act(sim::AgentContext& ctx) {
  UDRING_BEGIN;
  // Estimating phase — Algorithm 4 verbatim.
  ctx.set_phase(kEstimating);
  ctx.release_token();
  observed_ = 0;
  while (n_est_ == 0) {
    dis_ = 0;
    do {
      UDRING_AWAIT(ctx.move());
      ++dis_;
    } while (ctx.tokens_here() == 0);
    d_.push_back(dis_);
    d_max_ = std::max(d_max_, dis_);
    memory_changed();
    ++observed_;
    if (observed_ % 4 == 0 && is_m_fold_repetition(d_, 4)) {
      k_est_ = observed_ / 4;
      for (std::size_t i = 0; i < k_est_; ++i) n_est_ += d_[i];
      memory_changed();
    }
  }

  // Deploy by the estimate — and halt, claiming termination. This is the
  // step Theorem 5 forbids: the estimate may describe a smaller ring.
  ctx.set_phase(kDeploying);
  rank_ = min_rotation(d_);
  memory_changed();
  steps_left_ = rank_ * (n_est_ / k_est_) + std::min(rank_, n_est_ % k_est_);
  for (std::size_t i = 0; i < rank_; ++i) steps_left_ += d_[i];
  for (; steps_left_ > 0; --steps_left_) {
    UDRING_AWAIT(ctx.move());
  }
  UDRING_END;
}

std::size_t PrematureHaltAgent::compute_memory_bits() const {
  const std::uint64_t max_d = d_.empty() ? 1 : d_max_;
  return MemoryMeter{}
      .array(d_.size(), std::max<std::uint64_t>(max_d, n_est_))
      .counter(n_est_)
      .counter(k_est_)
      .counter(rank_)
      .bits();
}

std::uint64_t PrematureHaltAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x50726548616cULL, d_);  // "PreHal"
  h = hash_sequence(h, {n_est_, k_est_, rank_});
  return h;
}

}  // namespace udring::core
