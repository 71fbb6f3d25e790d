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

/// The CheckResult for `violation`: pass() for Kind::None, otherwise the
/// reason text every checker mode reports.
CheckResult invariant_result(const InvariantViolation& violation) {
  using Kind = InvariantViolation::Kind;
  if (!violation) return CheckResult::pass();
  std::ostringstream why;
  switch (violation.kind) {
    case Kind::None:
      break;
    case Kind::TokensDecreased:
      why << "token count decreased: " << violation.count << " < "
          << violation.bound;
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

/// One queue member's local validity: InTransit status and a destination
/// matching the queue it sits in.
InvariantViolation queue_member_violation(const Simulator& sim, AgentId id,
                                          NodeId node) {
  using Kind = InvariantViolation::Kind;
  const AgentStatus status = sim.status(id);
  if (status != AgentStatus::InTransit && status != AgentStatus::Crashed) {
    // A crash-stop corpse legitimately freezes inside the queue it was
    // transiting (destination still must match below); every live member
    // must be InTransit exactly as before.
    return {.kind = Kind::MemberStatus, .status = status, .agent = id,
            .node = node};
  }
  if (sim.agent_node(id) != node) {
    return {.kind = Kind::MemberDestination, .agent = id, .node = node};
  }
  return {};
}

/// One agent's status/queue-occurrence consistency given how many queues
/// hold it.
InvariantViolation occurrence_violation(const Simulator& sim, AgentId id,
                                        std::size_t occurrences) {
  using Kind = InvariantViolation::Kind;
  const AgentStatus status = sim.status(id);
  if (status == AgentStatus::Crashed) {
    // A corpse froze either in its link queue (1 occurrence) or in a
    // staying set (0); more than one queue is corruption as always.
    if (occurrences > 1) {
      return {.kind = Kind::CrashedInQueues, .agent = id, .count = occurrences};
    }
    return {};
  }
  const bool in_transit = status == AgentStatus::InTransit;
  if (in_transit && occurrences != 1) {
    return {.kind = Kind::InTransitOccurrences, .agent = id,
            .count = occurrences};
  }
  if (!in_transit && occurrences != 0) {
    return {.kind = Kind::StayingInQueue, .agent = id};
  }
  return {};
}

InvariantViolation token_violation(const Simulator& sim,
                                   std::size_t min_expected_tokens) {
  // Token monotonicity: tokens are indelible, so the total may only grow,
  // and in this paper's algorithms it is bounded by the number of agents.
  const std::size_t total_tokens = sim.total_tokens();
  if (total_tokens < min_expected_tokens) {
    return {.kind = InvariantViolation::Kind::TokensDecreased,
            .count = total_tokens, .bound = min_expected_tokens};
  }
  return {};
}

/// The full sweep: tokens, then every queue member in node order, then
/// every agent's occurrence count in id order; the first violation wins.
InvariantViolation first_invariant_violation(const Simulator& sim,
                                             std::size_t min_expected_tokens) {
  if (const InvariantViolation v = token_violation(sim, min_expected_tokens)) {
    return v;
  }
  // Every agent is either in exactly one link queue (in transit) or staying;
  // queue members must have InTransit status and match their queue's node.
  // The count buffer is per thread and reused: this runs once per mc tree
  // edge and once per checked-fuzz action, so it must not allocate per call.
  static thread_local std::vector<std::size_t> seen_in_queue;
  seen_in_queue.assign(sim.agent_count(), 0);
  for (NodeId node = 0; node < sim.node_count(); ++node) {
    for (const AgentId id : sim.link_queue(node)) {
      ++seen_in_queue.at(id);
      if (const InvariantViolation v = queue_member_violation(sim, id, node)) {
        return v;
      }
    }
  }
  for (AgentId id = 0; id < sim.agent_count(); ++id) {
    if (const InvariantViolation v =
            occurrence_violation(sim, id, seen_in_queue[id])) {
      return v;
    }
  }
  return {};
}

}  // namespace

CheckResult check_model_invariants(const Simulator& sim,
                                   std::size_t min_expected_tokens) {
  return invariant_result(first_invariant_violation(sim, min_expected_tokens));
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
    for (const AgentId id : sim.link_queue(node)) {
      shadow.push_back(id);
      ++in_queue_count_[id];
    }
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
    for (const AgentId id : sim.link_queue(node)) {
      shadow.push_back(id);
      ++in_queue_count_[id];
      touch(id);
      if (!member_violation) {
        member_violation = queue_member_violation(sim, id, node);
      }
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
