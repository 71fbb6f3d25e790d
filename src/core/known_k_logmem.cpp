#include "core/known_k_logmem.h"

#include <tuple>
#include <variant>

#include "core/distance_sequence.h"
#include "core/memory_meter.h"
#include "sim/message.h"
#include "util/bits.h"

namespace udring::core {

namespace {

/// Lexicographic ID comparison: (d, fNum) ordered by distance, then count.
[[nodiscard]] int compare_ids(std::size_t d1, std::size_t f1, std::size_t d2,
                              std::size_t f2) noexcept {
  if (std::tie(d1, f1) < std::tie(d2, f2)) return -1;
  if (std::tie(d1, f1) > std::tie(d2, f2)) return 1;
  return 0;
}

}  // namespace

KnownKLogMemAgent::KnownKLogMemAgent(std::size_t k, Options options)
    : k_(k), options_(options) {}

sim::Request KnownKLogMemAgent::act(sim::AgentContext& ctx) {
  UDRING_BEGIN;
  // ==== selection phase (Algorithm 2) =======================================
  ctx.set_phase(kSelection);
  ctx.release_token();

  while (role_ == Role::Active) {
    // One sub-phase: a full circuit measuring IDs of all active agents.
    tokens_seen_ = 0;
    identical_ = true;
    min_ = true;
    memory_changed();
    first_circuit_ = (sub_phase_ == 1);

    // -- measure ID_i = (d_own_, fnum_own_): walk to the next active node.
    // Active node: token, no staying agent (its owner is traversing).
    // Follower node: token plus a staying agent. tokens_seen_ == k means the
    // walk returned home (every home keeps its token forever).
    d_own_ = 0;
    fnum_own_ = 0;
    memory_changed();
    for (;;) {
      UDRING_AWAIT(ctx.move());
      ++d_own_;
      memory_changed();
      if (first_circuit_) ++n_;  // n accumulates over the first circuit
      if (ctx.tokens_here() == 0) continue;
      ++tokens_seen_;
      if (ctx.others_staying_here() == 0) break;  // next active node (or home)
      ++fnum_own_;
    }
    if (tokens_seen_ == k_) {
      // Only this agent is still active: it walked the whole ring without
      // meeting another active node (Algorithm 2, line 6). fnum_own_ counted
      // every follower, so the whole ring is its segment.
      role_ = Role::Leader;
      memory_changed();
      break;
    }

    // -- measure ID_next of the next active agent (lines 7–9).
    d_next_ = 0;
    fnum_next_ = 0;
    memory_changed();
    for (;;) {
      UDRING_AWAIT(ctx.move());
      ++d_next_;
      memory_changed();
      if (first_circuit_) ++n_;
      if (ctx.tokens_here() == 0) continue;
      ++tokens_seen_;
      if (ctx.others_staying_here() == 0) break;
      ++fnum_next_;
    }
    if (compare_ids(d_own_, fnum_own_, d_next_, fnum_next_) != 0) identical_ = false;
    if (compare_ids(d_own_, fnum_own_, d_next_, fnum_next_) > 0) min_ = false;

    // -- measure every further active agent's ID until back home (10–14).
    while (tokens_seen_ != k_) {
      d_other_ = 0;
      fnum_other_ = 0;
      memory_changed();
      for (;;) {
        UDRING_AWAIT(ctx.move());
        ++d_other_;
        memory_changed();
        if (first_circuit_) ++n_;
        if (ctx.tokens_here() == 0) continue;
        ++tokens_seen_;
        if (ctx.others_staying_here() == 0) break;
        ++fnum_other_;
      }
      if (compare_ids(d_own_, fnum_own_, d_other_, fnum_other_) != 0) {
        identical_ = false;
      }
      if (compare_ids(d_own_, fnum_own_, d_other_, fnum_other_) > 0) min_ = false;
    }

    // -- decide (lines 15–17). The agent is now back at its home node.
    if (identical_) {
      role_ = Role::Leader;  // all active agents share one ID: base nodes found
      memory_changed();
    } else if (!min_ ||
               compare_ids(d_own_, fnum_own_, d_next_, fnum_next_) == 0) {
      role_ = Role::Follower;  // not minimal, or a non-last member of a run
      memory_changed();
    } else {
      ++sub_phase_;  // survive into the next sub-phase
      memory_changed();
    }
  }

  // ==== deployment phase (Algorithm 3) ======================================
  ctx.set_phase(kDeployment);

  if (role_ == Role::Leader) {
    // Walk the segment, waking each follower with its token count to the
    // next base node (lines 4–9).
    walk_count_ = 0;
    memory_changed();
    while (walk_count_ != fnum_own_) {
      do {
        UDRING_AWAIT(ctx.move());
      } while (ctx.tokens_here() == 0);
      ctx.broadcast(base_info(fnum_own_ - walk_count_));
      ++walk_count_;
      memory_changed();
    }
    // Move to the next base node — this leader's own target — and halt.
    do {
      UDRING_AWAIT(ctx.move());
    } while (ctx.tokens_here() == 0);
    return ctx.halt();
  }

  // Follower: wait for the leader's notification (line 16).
  do {
    UDRING_AWAIT(ctx.wait_message());
  } while (!take_base_info(ctx.inbox()));

  // Walk to the nearest base node: pass t_base token nodes (line 17).
  walk_count_ = 0;
  memory_changed();
  while (walk_count_ != info_.t_base) {
    UDRING_AWAIT(ctx.move());
    if (ctx.tokens_here() != 0) {
      ++walk_count_;
      memory_changed();
    }
  }

  // Probe target positions until a vacant one is found (lines 18–21).
  // target_index_ cycles 1..per_seg through the §3.1.1 interval pattern;
  // index per_seg lands on a base node. In strict_paper mode the base stop
  // is probed like any target (the literal pseudocode — racy, see header);
  // by default it is skipped, reserved for its leader.
  target_index_ = 0;
  memory_changed();
  for (;;) {
    ++target_index_;
    memory_changed();
    steps_left_ = info_.floor_gap + (target_index_ <= info_.ceil_gaps ? 1 : 0);
    for (; steps_left_ > 0; --steps_left_) {
      UDRING_AWAIT(ctx.move());
    }
    const bool at_base_node = (target_index_ == info_.seg_agents);
    if ((!at_base_node || options_.strict_paper) &&
        ctx.others_staying_here() == 0) {
      return ctx.halt();  // claim this vacant target and halt
    }
    if (at_base_node) {
      target_index_ = 0;
      memory_changed();
    }
  }
  UDRING_END;
}

sim::BaseInfoMessage KnownKLogMemAgent::base_info(std::size_t t_base) const {
  // Segment geometry from the final ID: fnum_own_ followers per segment,
  // per_seg = fnum_own_ + 1 targets, and the n ≠ ck remainder split.
  const std::size_t per_seg = fnum_own_ + 1;
  return sim::BaseInfoMessage{
      /*t_base=*/t_base,
      /*seg_agents=*/per_seg,
      /*ceil_gaps=*/(n_ % k_) * per_seg / k_,
      /*floor_gap=*/n_ / k_,
  };
}

bool KnownKLogMemAgent::take_base_info(const std::vector<sim::Message>& inbox) {
  for (const sim::Message& message : inbox) {
    if (const auto* base_info = std::get_if<sim::BaseInfoMessage>(&message)) {
      info_ = *base_info;
      return true;
    }
  }
  return false;
}

std::size_t KnownKLogMemAgent::compute_memory_bits() const {
  // Scalars only — this is the point of Algorithm 2. Every counter is
  // bounded by n (distances), k (counts) or log k (sub-phase index).
  return MemoryMeter{}
      .counter(k_)
      .counter(sub_phase_)
      .counter(n_)
      .counter(tokens_seen_)
      .counter(d_own_)
      .counter(fnum_own_)
      .counter(d_next_)
      .counter(fnum_next_)
      .counter(d_other_)
      .counter(fnum_other_)
      .flag()  // identical_
      .flag()  // min_
      .counter(static_cast<std::uint64_t>(role_))
      .counter(walk_count_)
      .counter(target_index_)
      .bits();
}

std::uint64_t KnownKLogMemAgent::state_hash() const {
  return hash_sequence(0x416c676f32ULL,  // "Algo2"
                       {sub_phase_, n_, tokens_seen_, d_own_, fnum_own_, d_next_,
                        fnum_next_, d_other_, fnum_other_,
                        static_cast<std::size_t>(identical_),
                        static_cast<std::size_t>(min_),
                        static_cast<std::size_t>(role_), walk_count_,
                        target_index_});
}

}  // namespace udring::core
