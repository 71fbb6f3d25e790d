#include "sim/checker.h"

#include <algorithm>
#include <sstream>

namespace udring::sim {

std::vector<std::size_t> ring_gaps(std::vector<std::size_t> positions,
                                   std::size_t node_count) {
  std::sort(positions.begin(), positions.end());
  std::vector<std::size_t> gaps;
  gaps.reserve(positions.size());
  for (std::size_t i = 0; i + 1 < positions.size(); ++i) {
    gaps.push_back(positions[i + 1] - positions[i]);
  }
  if (!positions.empty()) {
    gaps.push_back(node_count - positions.back() + positions.front());
  }
  return gaps;
}

CheckResult check_positions_uniform(std::vector<std::size_t> positions,
                                    std::size_t node_count) {
  const std::size_t k = positions.size();
  if (k == 0) return CheckResult::fail("no agent positions");
  if (k == 1) return CheckResult::pass();

  std::sort(positions.begin(), positions.end());
  if (std::adjacent_find(positions.begin(), positions.end()) != positions.end()) {
    std::ostringstream why;
    why << "two agents share node "
        << *std::adjacent_find(positions.begin(), positions.end());
    return CheckResult::fail(why.str());
  }

  const std::size_t floor_gap = node_count / k;
  const std::size_t ceil_gap = floor_gap + (node_count % k == 0 ? 0 : 1);
  const std::size_t expected_ceil = node_count % k;

  std::size_t ceil_count = 0;
  for (const std::size_t gap : ring_gaps(positions, node_count)) {
    if (gap == ceil_gap && ceil_gap != floor_gap) {
      ++ceil_count;
    } else if (gap != floor_gap) {
      std::ostringstream why;
      why << "gap " << gap << " is neither ⌊n/k⌋=" << floor_gap
          << " nor ⌈n/k⌉=" << ceil_gap;
      return CheckResult::fail(why.str());
    }
  }
  if (ceil_gap != floor_gap && ceil_count != expected_ceil) {
    std::ostringstream why;
    why << "found " << ceil_count << " gaps of ⌈n/k⌉, expected " << expected_ceil;
    return CheckResult::fail(why.str());
  }
  return CheckResult::pass();
}

namespace {

CheckResult check_queues_empty(const Simulator& sim) {
  for (NodeId node = 0; node < sim.node_count(); ++node) {
    if (sim.queue_length(node) != 0) {
      std::ostringstream why;
      why << "link queue into node " << node << " still holds "
          << sim.queue_length(node) << " agent(s)";
      return CheckResult::fail(why.str());
    }
  }
  return CheckResult::pass();
}

CheckResult check_all_status(const Simulator& sim, AgentStatus wanted) {
  for (AgentId id = 0; id < sim.agent_count(); ++id) {
    // Crash-stop corpses (sim/fault.h) are exempt: a goal is judged over
    // the agents that can still act — a dead agent can neither halt nor
    // suspend, and blaming it would make every crashed run "fail" for the
    // wrong reason. What a corpse *blocks* (occupied queues, broken
    // geometry) is still reported by the other checks.
    if (sim.status(id) == AgentStatus::Crashed) continue;
    if (sim.status(id) != wanted) {
      std::ostringstream why;
      why << "agent " << id << " is " << to_string(sim.status(id)) << ", expected "
          << to_string(wanted);
      return CheckResult::fail(why.str());
    }
  }
  return CheckResult::pass();
}

/// Number of agents not dead by a crash-stop fault.
std::size_t live_agent_count(const Simulator& sim) {
  std::size_t live = 0;
  for (AgentId id = 0; id < sim.agent_count(); ++id) {
    if (sim.status(id) != AgentStatus::Crashed) ++live;
  }
  return live;
}

/// Nodes of all *live* staying agents, sorted — the position multiset every
/// geometric goal (uniformity, gathering groups, dispersion) is judged
/// over. Unlike ExecutionState::staying_nodes() this excludes crashed
/// corpses: a corpse occupies its node physically but is not a deployed
/// agent. On fault-free runs the two are identical.
std::vector<NodeId> live_staying_nodes(const Simulator& sim) {
  std::vector<NodeId> nodes;
  nodes.reserve(sim.agent_count());
  for (AgentId id = 0; id < sim.agent_count(); ++id) {
    switch (sim.status(id)) {
      case AgentStatus::Staying:
      case AgentStatus::Waiting:
      case AgentStatus::Suspended:
      case AgentStatus::Halted:
        nodes.push_back(sim.agent_node(id));
        break;
      case AgentStatus::InTransit:
      case AgentStatus::Crashed:
        break;
    }
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

}  // namespace

CheckResult UniformDeploymentOracle::check_goal(const Simulator& sim) const {
  if (require_termination_) {
    // Definition 1: halted agents, drained links, uniform positions.
    if (auto r = check_all_status(sim, AgentStatus::Halted); !r) return r;
    if (auto r = check_queues_empty(sim); !r) return r;
    return check_positions_uniform(live_staying_nodes(sim), sim.node_count());
  }
  // Definition 2: suspended agents, drained links and mailboxes, uniform
  // positions.
  if (auto r = check_all_status(sim, AgentStatus::Suspended); !r) return r;
  if (auto r = check_queues_empty(sim); !r) return r;
  const Snapshot snap = sim.snapshot();
  for (const AgentSnap& agent : snap.agents) {
    if (agent.status == AgentStatus::Crashed) continue;  // frozen mail
    if (agent.mailbox_size != 0) {
      std::ostringstream why;
      why << "agent " << agent.id << " has " << agent.mailbox_size
          << " undelivered message(s); Definition 2 requires m_i = ∅";
      return CheckResult::fail(why.str());
    }
  }
  return check_positions_uniform(live_staying_nodes(sim), sim.node_count());
}

namespace {

/// The first model-invariant violation a check found, as plain data: the
/// sweeps pass it around without building a CheckResult, and
/// invariant_result() formats the reason text only when there is one.
/// Shared verbatim by the full and incremental checkers so the two modes
/// cannot drift apart in wording.
struct InvariantViolation {
  enum class Kind : std::uint8_t {
    None,
    TokensDecreased,       ///< count = total tokens < bound
    QueueLinkOutOfRange,   ///< q_node links to agent id `agent` >= count = k
    QueueCycle,            ///< q_node runs past count = k members
    MemberStatus,          ///< queue member with a non-transit status
    MemberDestination,     ///< queue member bound for another node
    CrashedInQueues,       ///< crashed agent in `count` (> 1) queues
    InTransitOccurrences,  ///< in-transit agent in `count` (!= 1) queues
    StayingInQueue,        ///< staying agent also in a queue
  };
  Kind kind = Kind::None;
  AgentStatus status = AgentStatus::InTransit;
  AgentId agent = 0;
  NodeId node = 0;
  std::size_t count = 0;
  std::size_t bound = 0;

  explicit operator bool() const noexcept { return kind != Kind::None; }
};

using Kind = InvariantViolation::Kind;

/// The CheckResult for `violation`: pass() for Kind::None, otherwise the
/// reason text every checker mode reports.
CheckResult invariant_result(const InvariantViolation& violation) {
  if (!violation) return CheckResult::pass();
  std::ostringstream why;
  switch (violation.kind) {
    case Kind::None:
      break;
    case Kind::TokensDecreased:
      why << "token count decreased: " << violation.count << " < "
          << violation.bound;
      break;
    case Kind::QueueLinkOutOfRange:
      why << "link queue into node " << violation.node << " links to agent "
          << violation.agent << ", but there are only " << violation.count
          << " agents";
      break;
    case Kind::QueueCycle:
      why << "link queue into node " << violation.node
          << " runs past all " << violation.count
          << " agents: its links form a cycle";
      break;
    case Kind::MemberStatus:
      why << "agent " << violation.agent << " is in queue to node "
          << violation.node << " but has status "
          << to_string(violation.status);
      break;
    case Kind::MemberDestination:
      why << "agent " << violation.agent << " queue/destination mismatch";
      break;
    case Kind::CrashedInQueues:
      why << "crashed agent " << violation.agent << " appears in "
          << violation.count << " queues";
      break;
    case Kind::InTransitOccurrences:
      why << "in-transit agent " << violation.agent << " appears in "
          << violation.count << " queues";
      break;
    case Kind::StayingInQueue:
      why << "staying agent " << violation.agent
          << " also appears in a link queue";
      break;
  }
  return CheckResult::fail(why.str());
}

// ---- the predicates ---------------------------------------------------------
//
// Each returns the kind of violation it sees, or Kind::None, from plain
// values, so the pass path can OR them into one flag while the ordered walk
// turns the first hit into an InvariantViolation.

/// Token monotonicity: tokens are indelible, so the total may only grow (and
/// in this paper's algorithms it is bounded by the number of agents).
Kind token_kind(std::size_t total_tokens, std::size_t min_expected_tokens) {
  return total_tokens < min_expected_tokens ? Kind::TokensDecreased
                                            : Kind::None;
}

/// One queue member's local validity: InTransit status and a destination
/// matching the queue it sits in. A crash-stop corpse legitimately freezes
/// inside the queue it was transiting (its destination must still match);
/// every live member must be InTransit.
Kind member_kind(AgentStatus status, NodeId destination, NodeId node) {
  const bool transit_or_corpse = (status == AgentStatus::InTransit) |
                                 (status == AgentStatus::Crashed);
  if (!transit_or_corpse) return Kind::MemberStatus;
  return destination != node ? Kind::MemberDestination : Kind::None;
}

/// One agent's status against the number of queues holding it: exactly one
/// while in transit; at most one for a corpse, which froze either in its
/// link queue or in a staying set; none for every other status.
///
/// The full sweep cannot produce three of these kinds: a corpse in two
/// queues, an agent in transit in two queues, and a staying agent in a
/// queue. Intrusive queue links give an agent one destination, so the
/// sweep's member check or its k-bounded walk fires first. The kinds stay
/// because both checkers share this predicate, and the incremental checker
/// does reach them: its membership counts come from diffing queues against
/// a shadow, and a shadow gone stale (a state checked more than one action
/// after it was bound) miscounts. Cutting the kinds from the full sweep
/// alone would fork the predicate.
Kind occurrence_kind(AgentStatus status, std::size_t occurrences) {
  const bool in_transit = status == AgentStatus::InTransit;
  const bool crashed = status == AgentStatus::Crashed;
  const std::size_t least = in_transit ? 1 : 0;
  const std::size_t most = (in_transit | crashed) ? 1 : 0;
  if ((occurrences >= least) & (occurrences <= most)) return Kind::None;
  if (crashed) return Kind::CrashedInQueues;
  return in_transit ? Kind::InTransitOccurrences : Kind::StayingInQueue;
}

/// Where a walk of a queue bounded by k members stopped: at kNoAgent (the
/// queue ended), at a link outside the agent ids, or on a (k+1)-th member —
/// a legal queue holds at most k agents, so only a cycle gets that far.
Kind queue_end_kind(AgentId stop, std::size_t agent_count) {
  if (stop == ExecutionState::kNoAgent) return Kind::None;
  return stop >= agent_count ? Kind::QueueLinkOutOfRange : Kind::QueueCycle;
}

InvariantViolation token_violation(const Simulator& sim,
                                   std::size_t min_expected_tokens) {
  return {.kind = token_kind(sim.total_tokens(), min_expected_tokens),
          .count = sim.total_tokens(), .bound = min_expected_tokens};
}

InvariantViolation queue_member_violation(const Simulator& sim, AgentId id,
                                          NodeId node) {
  const AgentStatus status = sim.status(id);
  return {.kind = member_kind(status, sim.agent_node(id), node),
          .status = status, .agent = id, .node = node};
}

InvariantViolation occurrence_violation(const Simulator& sim, AgentId id,
                                        std::size_t occurrences) {
  return {.kind = occurrence_kind(sim.status(id), occurrences), .agent = id,
          .count = occurrences};
}

InvariantViolation queue_end_violation(const Simulator& sim, NodeId node,
                                       AgentId stop) {
  return {.kind = queue_end_kind(stop, sim.agent_count()), .agent = stop,
          .node = node, .count = sim.agent_count()};
}

// ---- the full sweep ---------------------------------------------------------

/// Calls visit(id) on the members of q_node in FIFO order, and returns the
/// id the walk stopped at (see queue_end_kind). It reads the raw links and
/// stops after k = agent_count() members or at the first link that is not
/// an agent id, so a corrupted queue cannot hang a checker or send it out of
/// bounds. Every queue walk of both checkers goes through here.
template <typename Visit>
AgentId walk_queue(const Simulator& sim, NodeId node, Visit&& visit) {
  const std::size_t k = sim.agent_count();
  AgentId id = sim.queue_head(node);
  for (std::size_t members = 0; id < k && members < k;
       id = sim.queue_next(id), ++members) {
    visit(id);
  }
  return id;
}

/// Per-thread scratch of the full sweep, reused: it runs once per mc edge
/// and once per checked-fuzz action, so it must not allocate per call.
struct SweepScratch {
  std::vector<NodeId> busy_nodes;  ///< nodes with a non-empty queue
  std::vector<std::size_t> seen;   ///< per agent: queues it was met in
};

/// The pass path: every predicate of first_invariant_violation over the same
/// walks, ORed into one flag with no early exit. It first compacts the nodes
/// whose queue is non-empty (without branching) and walks only those.
bool any_invariant_violation(const Simulator& sim,
                             std::size_t min_expected_tokens,
                             SweepScratch& scratch) {
  const std::size_t n = sim.node_count();
  const std::size_t k = sim.agent_count();
  bool bad = token_kind(sim.total_tokens(), min_expected_tokens) != Kind::None;
  std::vector<NodeId>& busy = scratch.busy_nodes;
  busy.resize(n);
  std::size_t busy_count = 0;
  for (NodeId node = 0; node < n; ++node) {
    busy[busy_count] = node;
    busy_count += sim.queue_head(node) != ExecutionState::kNoAgent ? 1 : 0;
  }
  std::vector<std::size_t>& seen = scratch.seen;
  seen.assign(k, 0);
  for (std::size_t i = 0; i < busy_count; ++i) {
    const NodeId node = busy[i];
    const AgentId stop = walk_queue(sim, node, [&](AgentId id) {
      ++seen[id];
      bad |= member_kind(sim.status(id), sim.agent_node(id), node) !=
             Kind::None;
    });
    bad |= queue_end_kind(stop, k) != Kind::None;
  }
  for (AgentId id = 0; id < k; ++id) {
    bad |= occurrence_kind(sim.status(id), seen[id]) != Kind::None;
  }
  return bad;
}

/// The ordered walk, run only to name a failure: tokens, then every queue in
/// node order (each member, then how the walk ended), then every agent's
/// occurrence count in id order; the first violation wins.
InvariantViolation first_invariant_violation(const Simulator& sim,
                                             std::size_t min_expected_tokens,
                                             std::vector<std::size_t>& seen) {
  if (const InvariantViolation v = token_violation(sim, min_expected_tokens)) {
    return v;
  }
  const std::size_t k = sim.agent_count();
  seen.assign(k, 0);
  for (NodeId node = 0; node < sim.node_count(); ++node) {
    InvariantViolation member;
    const AgentId stop = walk_queue(sim, node, [&](AgentId id) {
      ++seen[id];
      if (!member) member = queue_member_violation(sim, id, node);
    });
    if (member) return member;
    if (const InvariantViolation v = queue_end_violation(sim, node, stop)) {
      return v;
    }
  }
  for (AgentId id = 0; id < k; ++id) {
    if (const InvariantViolation v = occurrence_violation(sim, id, seen[id])) {
      return v;
    }
  }
  return {};
}

}  // namespace

CheckResult check_model_invariants(const Simulator& sim,
                                   std::size_t min_expected_tokens) {
  static thread_local SweepScratch scratch;
  if (!any_invariant_violation(sim, min_expected_tokens, scratch)) {
    return CheckResult::pass();
  }
  return invariant_result(
      first_invariant_violation(sim, min_expected_tokens, scratch.seen));
}

CheckResult IncrementalInvariantChecker::reset(const ExecutionState& sim,
                                               std::size_t min_expected_tokens) {
  rebuild_shadow(sim);
  actions_since_full_ = 0;
  full_checks_ = 0;
  return check_model_invariants(sim, min_expected_tokens);
}

void IncrementalInvariantChecker::rebuild_shadow(const ExecutionState& sim) {
  in_queue_count_.assign(sim.agent_count(), 0);
  touched_mark_.assign(sim.agent_count(), 0);
  touched_.clear();
  // Shrinking keeps the surviving nodes' buffers; growing default-constructs
  // the tail — same pooled-arena shape as the ExecutionState itself.
  queue_shadow_.resize(sim.node_count());
  for (NodeId node = 0; node < sim.node_count(); ++node) {
    auto& shadow = queue_shadow_[node];
    shadow.clear();
    // A corrupted queue is copied up to where its walk stops; the full check
    // that follows every rebuild names the fault.
    (void)walk_queue(sim, node, [&](AgentId id) {
      shadow.push_back(id);
      ++in_queue_count_[id];
    });
  }
}

void IncrementalInvariantChecker::touch(AgentId id) {
  if (touched_mark_[id] != 0) return;
  touched_mark_[id] = 1;
  touched_.push_back(id);
}

CheckResult IncrementalInvariantChecker::check_after_action(
    const ExecutionState& sim, std::size_t min_expected_tokens) {
  if (in_queue_count_.size() != sim.agent_count() ||
      queue_shadow_.size() != sim.node_count()) {
    // Misuse guard: this state was never reset() onto — adopt it with a
    // full validation instead of diffing against a foreign shadow.
    rebuild_shadow(sim);
    actions_since_full_ = 0;
    return check_model_invariants(sim, min_expected_tokens);
  }

  // total_tokens() is a maintained counter, so the global token check stays
  // exact and O(1) even in incremental mode.
  if (const InvariantViolation v = token_violation(sim, min_expected_tokens)) {
    return invariant_result(v);
  }

  // Diff the dirty queues against the shadow: membership counts update for
  // departed and (re)present members, and each current member is validated
  // exactly as the full checker would.
  for (const AgentId id : touched_) touched_mark_[id] = 0;
  touched_.clear();
  const AgentId actor = sim.last_acting_agent();
  if (actor != ExecutionState::kNoAgentActing) touch(actor);
  InvariantViolation member_violation;
  for (const NodeId node : sim.last_action_nodes()) {
    auto& shadow = queue_shadow_[node];
    for (const AgentId id : shadow) {
      --in_queue_count_[id];
      touch(id);
    }
    shadow.clear();
    const AgentId stop = walk_queue(sim, node, [&](AgentId id) {
      shadow.push_back(id);
      ++in_queue_count_[id];
      touch(id);
      if (!member_violation) {
        member_violation = queue_member_violation(sim, id, node);
      }
    });
    if (!member_violation) {
      member_violation = queue_end_violation(sim, node, stop);
    }
  }
  // Counts must be consistent before returning a member failure, or a later
  // check_after_action would diff against stale state; hence the deferred
  // return.
  if (member_violation) return invariant_result(member_violation);

  // Ascending agent order mirrors the full checker's occurrence sweep.
  std::sort(touched_.begin(), touched_.end());
  for (const AgentId id : touched_) {
    if (const InvariantViolation v =
            occurrence_violation(sim, id, in_queue_count_[id])) {
      return invariant_result(v);
    }
  }

  // Periodic safety net: a full re-walk catches any corruption outside the
  // footprint (which no *legal* action can produce).
  if (options_.full_check_every != 0 &&
      ++actions_since_full_ >= options_.full_check_every) {
    actions_since_full_ = 0;
    ++full_checks_;
    return check_model_invariants(sim, min_expected_tokens);
  }
  return CheckResult::pass();
}

CheckResult check_gathered(const Simulator& sim) {
  const std::vector<NodeId> nodes = live_staying_nodes(sim);
  if (nodes.size() != live_agent_count(sim)) {
    return CheckResult::fail("not all agents are staying");
  }
  std::vector<NodeId> distinct = nodes;
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  if (distinct.size() > 1) {
    std::ostringstream why;
    why << "agents are spread over " << distinct.size()
        << " distinct nodes; expected one";
    return CheckResult::fail(why.str());
  }
  return CheckResult::pass();
}

CheckResult check_partial_gathering(const Simulator& sim, std::size_t g) {
  if (auto r = check_all_status(sim, AgentStatus::Halted); !r) return r;
  if (auto r = check_queues_empty(sim); !r) return r;
  if (g <= 1) return CheckResult::pass();
  std::vector<NodeId> nodes = live_staying_nodes(sim);
  for (std::size_t i = 0; i < nodes.size();) {
    std::size_t j = i;
    while (j < nodes.size() && nodes[j] == nodes[i]) ++j;
    if (j - i < g) {
      std::ostringstream why;
      why << "node " << nodes[i] << " hosts " << (j - i)
          << " agent(s); g-partial gathering requires at least " << g;
      return CheckResult::fail(why.str());
    }
    i = j;
  }
  return CheckResult::pass();
}

CheckResult check_dispersed(const Simulator& sim) {
  if (auto r = check_all_status(sim, AgentStatus::Halted); !r) return r;
  if (auto r = check_queues_empty(sim); !r) return r;
  std::vector<NodeId> nodes = live_staying_nodes(sim);
  for (std::size_t i = 0; i < nodes.size();) {
    std::size_t j = i;
    while (j < nodes.size() && nodes[j] == nodes[i]) ++j;
    if (j - i > 1) {
      std::ostringstream why;
      why << "node " << nodes[i] << " hosts " << (j - i)
          << " settled agents; dispersion requires exactly one";
      return CheckResult::fail(why.str());
    }
    i = j;
  }
  return CheckResult::pass();
}

CheckResult GoalOracle::check_action(
    const Simulator& sim, std::size_t min_expected_tokens,
    IncrementalInvariantChecker* incremental) const {
  return incremental != nullptr
             ? incremental->check_after_action(sim, min_expected_tokens)
             : check_model_invariants(sim, min_expected_tokens);
}

}  // namespace udring::sim
