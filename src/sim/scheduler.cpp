#include "sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "sim/execution_state.h"

namespace udring::sim {

// ---- RoundRobinScheduler ----------------------------------------------------

namespace {

/// The first set bit of `bits` at or after bit `from`, wrapping to bit 0.
/// `bits` holds at least one set bit; `from` may lie past its last word.
AgentId first_set_bit_cyclic(std::span<const std::uint64_t> bits,
                             std::size_t from) {
  std::size_t w = from / 64;
  if (w < bits.size()) {
    std::uint64_t word = bits[w] & (~std::uint64_t{0} << (from % 64));
    for (;;) {
      if (word != 0) {
        return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      }
      if (++w == bits.size()) break;
      word = bits[w];
    }
  }
  w = 0;
  while (bits[w] == 0) ++w;
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits[w]));
}

}  // namespace

void RoundRobinScheduler::attach(const ExecutionState& sim) {
  attached_ = &sim;
  attached_enabled_ = &sim.enabled();
}

void RoundRobinScheduler::reset(std::size_t agent_count) {
  agent_count_ = agent_count;
  cursor_ = 0;
}

AgentId RoundRobinScheduler::pick(const std::vector<AgentId>& enabled) {
  AgentId best = enabled.front();
  if (&enabled == attached_enabled_ &&
      agent_count_ >= attached_->agent_count()) {
    best = first_set_bit_cyclic(attached_->enabled_bits(), cursor_);
  } else {
    // Choose the enabled agent with the smallest cyclic distance from
    // cursor_.
    std::size_t best_key = agent_count_;
    for (const AgentId id : enabled) {
      const std::size_t key =
          id >= cursor_ ? id - cursor_ : agent_count_ - cursor_ + id;
      if (key < best_key) {
        best_key = key;
        best = id;
      }
    }
  }
  // best < agent_count_ always (it is an enabled agent id), so the cyclic
  // increment needs a compare, not a per-action modulo.
  cursor_ = best + 1;
  if (cursor_ >= agent_count_) cursor_ = 0;
  return best;
}

// ---- RandomScheduler --------------------------------------------------------

void RandomScheduler::reset(std::size_t /*agent_count*/) { rng_ = Rng(seed_); }

// ---- SynchronousScheduler ---------------------------------------------------

void SynchronousScheduler::attach(const ExecutionState& sim) {
  attached_ = &sim;
  attached_enabled_ = &sim.enabled();
  cursor_ = 0;
}

void SynchronousScheduler::reset(std::size_t agent_count) {
  acted_round_.assign(agent_count, 0);
  rounds_ = 0;
  cursor_ = 0;
}

AgentId SynchronousScheduler::pick(const std::vector<AgentId>& enabled) {
  const bool own = &enabled == attached_enabled_;
  std::size_t i = 0;
  // Resume at the cursor only if the one action since this scheduler's last
  // draw is the one that draw chose; the floor covers that action's removals.
  if (own && attached_->actions_executed() == drawn_at_ + 1) {
    i = std::min(cursor_, attached_->enabled_removal_floor());
  }
  const std::uint64_t current = rounds_ + 1;
  while (i < enabled.size() && acted_round_[enabled[i]] >= current) ++i;
  if (i == enabled.size()) {
    // Every enabled agent has acted: the round is complete. Bumping rounds_
    // implicitly un-stamps every agent — no array clear.
    ++rounds_;
    i = 0;
  }
  const AgentId id = enabled[i];
  acted_round_[id] = rounds_ + 1;
  // A vector other than the attached state's leaves no cursor to resume at.
  cursor_ = own ? i : 0;
  if (own) drawn_at_ = attached_->actions_executed();
  return id;
}

// ---- PriorityScheduler ------------------------------------------------------

PriorityScheduler::PriorityScheduler(std::vector<AgentId> order)
    : descending_default_(false), order_(std::move(order)) {}

void PriorityScheduler::reset(std::size_t agent_count) {
  if (descending_default_) {
    // Canonical adversary: the highest id runs first, agent 0 is starved.
    // Derived from agent_count here so one object is reusable across runs
    // of different sizes; matches the explicit order {k-1, …, 0}.
    rank_.assign(agent_count, 0);
    for (AgentId id = 0; id < agent_count; ++id) {
      rank_[id] = agent_count - 1 - id;
    }
    return;
  }
  rank_.assign(agent_count, agent_count + order_.size());
  std::size_t next_rank = 0;
  for (const AgentId id : order_) {
    if (id < agent_count) rank_[id] = next_rank++;
  }
  // Agents not listed keep a stable id-ordered tail.
  for (AgentId id = 0; id < agent_count; ++id) {
    if (rank_[id] == agent_count + order_.size()) rank_[id] = order_.size() + id;
  }
}

// ---- BurstScheduler ---------------------------------------------------------

void BurstScheduler::reset(std::size_t /*agent_count*/) {
  // Re-seed the RNG too: a reused scheduler whose RNG carried state across
  // runs would make pooled reruns diverge from fresh-object runs (the
  // correlated-rerun bug test_pooling.cpp pins).
  rng_ = Rng(seed_);
  current_ = kNoAgent;
}

// ---- factory ----------------------------------------------------------------

std::string_view to_string(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::RoundRobin: return "round-robin";
    case SchedulerKind::Random: return "random";
    case SchedulerKind::Synchronous: return "synchronous";
    case SchedulerKind::Priority: return "priority";
    case SchedulerKind::Burst: return "burst";
  }
  return "?";
}

const std::vector<SchedulerKind>& all_scheduler_kinds() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::RoundRobin, SchedulerKind::Random,
      SchedulerKind::Synchronous, SchedulerKind::Priority,
      SchedulerKind::Burst,
  };
  return kinds;
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, std::uint64_t seed,
                                          std::size_t agent_count) {
  // Every kind now sizes itself from reset(agent_count); the parameter is
  // kept so existing call sites (and future kinds that need it at
  // construction) stay source-compatible.
  (void)agent_count;
  switch (kind) {
    case SchedulerKind::RoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerKind::Random:
      return std::make_unique<RandomScheduler>(seed);
    case SchedulerKind::Synchronous:
      return std::make_unique<SynchronousScheduler>();
    case SchedulerKind::Priority:
      // Default mode: descending ids, derived from reset()'s agent count —
      // the pooled form works for any run size.
      return std::make_unique<PriorityScheduler>();
    case SchedulerKind::Burst:
      return std::make_unique<BurstScheduler>(seed);
  }
  throw std::invalid_argument("make_scheduler: unknown kind");
}

}  // namespace udring::sim
