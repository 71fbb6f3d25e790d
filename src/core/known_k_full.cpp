#include "core/known_k_full.h"

#include <algorithm>

#include "core/memory_meter.h"
#include "core/targets.h"

namespace udring::core {

KnownKFullAgent::KnownKFullAgent(std::size_t k) : k_(k) { d_.reserve(k); }

sim::Request KnownKFullAgent::act(sim::AgentContext& ctx) {
  UDRING_BEGIN;
  // --- selection phase (Algorithm 1, lines 1–10) ---------------------------
  // The first action is the arrival at the home node (initial-buffer rule),
  // so the token lands before any other agent can act here.
  ctx.set_phase(kSelection);
  ctx.release_token();

  while (d_.size() < k_) {
    // Move to the nearest token node, measuring the distance. Every home
    // node keeps its token forever, so after k token sightings the agent has
    // completed exactly one circuit and is back home.
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

  // --- deployment phase (lines 12–18) --------------------------------------
  ctx.set_phase(kDeployment);
  rank_ = min_rotation(d_);
  dis_base_ = 0;
  for (std::size_t i = 0; i < rank_; ++i) dis_base_ += d_[i];
  memory_changed();

  // b = symmetry degree: on periodic configurations each period block elects
  // its own base node and rank_ < k/b indexes within the block.
  steps_left_ =
      dis_base_ + make_target_plan(n_, k_, symmetry_degree(d_)).offset(rank_);
  for (; steps_left_ > 0; --steps_left_) {
    UDRING_AWAIT(ctx.move());
  }
  // Arriving at the target node, terminate (halt state, Definition 1).
  UDRING_END;
}

std::size_t KnownKFullAgent::compute_memory_bits() const {
  const std::uint64_t max_d = d_.empty() ? 1 : d_max_;
  return MemoryMeter{}
      .counter(k_)
      .array(d_.size(), std::max<std::uint64_t>(max_d, n_))
      .counter(n_)
      .counter(rank_)
      .counter(dis_base_)
      .bits();
}

std::uint64_t KnownKFullAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x416c676f31ULL, d_);  // "Algo1"
  h = hash_sequence(h, {n_, rank_, dis_base_});
  return h;
}

// ---- footnote-2 variant: knowledge of n instead of k ------------------------

KnownNFullAgent::KnownNFullAgent(std::size_t n) : n_(n) {}

sim::Request KnownNFullAgent::act(sim::AgentContext& ctx) {
  UDRING_BEGIN;
  // Selection: identical walk, but the circuit ends when the accumulated
  // distance reaches n; k comes out as the number of token sightings.
  ctx.set_phase(kSelection);
  ctx.release_token();

  dis_ = 0;
  while (traveled_ < n_) {
    UDRING_AWAIT(ctx.move());
    ++traveled_;
    ++dis_;
    if (ctx.tokens_here() != 0) {
      d_.push_back(dis_);
      d_max_ = std::max(d_max_, dis_);
      dis_ = 0;
    }
    memory_changed();
  }
  // Back home: the last recorded distance closes the circuit, so ΣD = n and
  // |D| = k.

  ctx.set_phase(kDeployment);
  rank_ = min_rotation(d_);
  dis_base_ = 0;
  for (std::size_t i = 0; i < rank_; ++i) dis_base_ += d_[i];
  memory_changed();

  steps_left_ = dis_base_ + make_target_plan(n_, d_.size(), symmetry_degree(d_))
                                .offset(rank_);
  for (; steps_left_ > 0; --steps_left_) {
    UDRING_AWAIT(ctx.move());
  }
  UDRING_END;
}

std::size_t KnownNFullAgent::compute_memory_bits() const {
  const std::uint64_t max_d = d_.empty() ? 1 : d_max_;
  return MemoryMeter{}
      .counter(n_)
      .array(d_.size(), std::max<std::uint64_t>(max_d, n_))
      .counter(traveled_)
      .counter(rank_)
      .counter(dis_base_)
      .bits();
}

std::uint64_t KnownNFullAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x416c676f314eULL, d_);  // "Algo1N"
  h = hash_sequence(h, {n_, traveled_, rank_, dis_base_});
  return h;
}

}  // namespace udring::core
