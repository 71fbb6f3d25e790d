#include "core/unknown_relaxed.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "core/memory_meter.h"

namespace udring::core {

sim::Request UnknownRelaxedAgent::act(sim::AgentContext& ctx) {
  UDRING_BEGIN;
  // ==== estimating phase (Algorithm 4) ======================================
  ctx.set_phase(kEstimating);
  ctx.release_token();

  observed_ = 0;  // j in the pseudocode
  while (n_est_ == 0) {
    dis_ = 0;
    do {
      UDRING_AWAIT(ctx.move());
      ++nodes_;
      memory_changed();
      ++dis_;
    } while (ctx.tokens_here() == 0);
    d_.push_back(dis_);
    d_max_ = std::max(d_max_, dis_);
    memory_changed();
    ++observed_;
    if (observed_ % 4 == 0 && is_m_fold_repetition(d_, 4)) {
      // D = S^4: the agent believes it circled the ring four times.
      k_est_ = observed_ / 4;
      n_est_ = 0;
      for (std::size_t i = 0; i < k_est_; ++i) n_est_ += d_[i];
      first_n_est_ = n_est_;
      memory_changed();
    }
  }

  for (;;) {
    // ==== patrolling phase (Algorithm 5) ====================================
    // (After a correction this doubles as the "move until nodes = 12n'"
    // catch-up of Algorithm 6 lines 17–18, which performs no sends; the
    // paper's complexity argument only relies on first-estimate patrollers
    // informing others, so informing here too is harmless — but we stay
    // faithful and only send during the *first* patrol.)
    ctx.set_phase(corrections_ == 0 ? kPatrolling : kDeploying);
    while (nodes_ != 12 * n_est_) {
      UDRING_AWAIT(ctx.move());
      ++nodes_;
      memory_changed();
      if (corrections_ == 0 && ctx.others_staying_here() > 0) {
        sim::EstimateMessage message;
        message.n_est = n_est_;
        message.k_est = k_est_;
        message.nodes_visited = nodes_;
        message.distance_seq = d_;
        ctx.broadcast(std::move(message));
      }
    }

    // ==== deployment phase (Algorithm 6, lines 1–10) ========================
    ctx.set_phase(kDeploying);
    rank_ = min_rotation(d_);  // < k_est_ because S is aperiodic
    dis_base_ = 0;
    for (std::size_t i = 0; i < rank_; ++i) dis_base_ += d_[i];
    memory_changed();

    // offset(rank) with the n' ≠ c·k' remainder rule (§3.1.1, one segment in
    // the agent's estimated world).
    steps_left_ = dis_base_ + rank_ * (n_est_ / k_est_) +
                  std::min(rank_, n_est_ % k_est_);
    for (; steps_left_ > 0; --steps_left_) {
      UDRING_AWAIT(ctx.move());
      ++nodes_;
      memory_changed();
    }

    // ==== suspended state (Algorithm 6, lines 12–19) ========================
    ctx.set_phase(kSuspendedPhase);
    for (;;) {
      UDRING_AWAIT(ctx.suspend());
      const auto resume = pick_resume_message(ctx.inbox());
      if (!resume.has_value()) continue;  // condition failed: stay suspended

      const auto& [message, t] = *resume;
      n_est_ = message.n_est;
      k_est_ = message.k_est;
      d_ = shift(message.distance_seq, t);  // D re-anchored at this agent's home
      d_max_ = d_.empty() ? 0 : *std::max_element(d_.begin(), d_.end());
      ++corrections_;
      memory_changed();
      break;
    }
    // Catch up to 12·n'ℓ total moves (always ahead of nodes_; Lemma 5), then
    // redeploy from the loop top. 12n' is a multiple of n', so the position
    // after the catch-up is the home node shifted by 0 mod n'.
  }
  UDRING_END;
}

std::optional<std::pair<sim::EstimateMessage, std::size_t>>
UnknownRelaxedAgent::pick_resume_message(
    const std::vector<sim::Message>& inbox) const {
  std::optional<std::pair<sim::EstimateMessage, std::size_t>> best;
  for (const sim::Message& raw : inbox) {
    const auto* message = std::get_if<sim::EstimateMessage>(&raw);
    if (message == nullptr) continue;
    // Condition 1: the sender's estimate is at least twice ours.
    if (2 * n_est_ > message->n_est) continue;
    if (message->nodes_visited < nodes_) continue;
    const DistanceSeq& dl = message->distance_seq;  // S_ℓ⁴
    const std::size_t period_len = message->k_est;
    const std::size_t period_sum = message->n_est;
    if (dl.size() != 4 * period_len || period_sum == 0) continue;

    // Condition 2: an offset t whose prefix sum equals the travel
    // difference, taken over the *periodic extension* of Dℓ. The pseudocode
    // bounds t by |Dℓ| = 4k'ℓ, but a patroller whose visits to this node all
    // have nodesℓ − nodes > 4n'ℓ could then never satisfy the condition (a
    // concrete instance: the packed Theorem-1 configuration, where the agent
    // at the arc's head suspends with n' = 1 before any correct estimator
    // leaves its estimating phase — see DESIGN.md §6 item 7). Since Dℓ is
    // S_ℓ⁴, reducing the difference modulo n'ℓ = ΣS_ℓ is the same alignment
    // over the extension and restores Lemma 5's own counting.
    const std::size_t diff = (message->nodes_visited - nodes_) % period_sum;
    std::size_t t = 0;
    std::size_t prefix = 0;
    while (t < period_len && prefix < diff) {
      prefix += dl[t];
      ++t;
    }
    if (prefix != diff) continue;

    // ... such that our whole D is the window of the extension starting at t.
    bool aligned = true;
    for (std::size_t j = 0; j < d_.size() && aligned; ++j) {
      aligned = (d_[j] == dl[(t + j) % period_len]);
    }
    if (!aligned) continue;

    if (!best.has_value() || message->n_est > best->first.n_est) {
      best.emplace(*message, t);
    }
  }
  return best;
}

std::size_t UnknownRelaxedAgent::compute_memory_bits() const {
  const std::uint64_t max_d = d_.empty() ? 1 : d_max_;
  return MemoryMeter{}
      .array(d_.size(), std::max<std::uint64_t>(max_d, n_est_))
      .counter(n_est_)
      .counter(k_est_)
      .counter(nodes_)
      .counter(rank_)
      .counter(dis_base_)
      .bits();
}

std::uint64_t UnknownRelaxedAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x416c676f343536ULL, d_);  // "Algo456"
  h = hash_sequence(h, {n_est_, k_est_, nodes_, rank_, dis_base_});
  return h;
}

}  // namespace udring::core
