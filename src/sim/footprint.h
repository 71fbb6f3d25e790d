// udring/sim/footprint.h
//
// The conservative action footprint: THE {node, next(node)} bound.
//
// One atomic action by an agent can only modify configuration components
// that live at the node it executes at (queue membership, staying set,
// tokens, co-located mailboxes, the agent's own status) and — when the
// action is a move — the successor's link queue. Taken *before* the action
// runs, {agent_node, next(agent_node)} is therefore a sound overestimate of
// every node the action may touch, whatever the agent's program does.
//
// Two subsystems lean on exactly this bound: the mc:: sleep sets (commuting
// independent actions) and — in its tighter post-hoc form —
// ExecutionState::last_action_nodes(), which the O(dirty) incremental
// invariant checker consumes. This header is the single definition; a
// drifted copy would silently unsound the pruning, so new consumers must
// use it instead of re-deriving the pair.

#pragma once

#include "sim/execution_state.h"
#include "sim/types.h"

namespace udring::sim {

/// Pre-action footprint of one enabled agent: the node it will act at and
/// that node's successor. On a 1-node walk the two coincide; overlaps()
/// handles the duplicate without callers deduplicating.
struct ActionFootprint {
  NodeId node = 0;  ///< the node the action executes at
  NodeId next = 0;  ///< its successor — the move destination, if any

  /// True when the two footprints share any node — i.e. the two actions may
  /// be dependent. The negation is the independence predicate of the mc::
  /// sleep sets.
  [[nodiscard]] constexpr bool overlaps(
      const ActionFootprint& other) const noexcept {
    return node == other.node || node == other.next || next == other.node ||
           next == other.next;
  }
};

/// Footprint of `agent`'s next action from the current configuration of
/// `state`. `agent`'s node is its staying node, or its destination while in
/// transit — in both cases the node the next action executes at. Uses the
/// *live* successor (ExecutionState::live_next), so after a dynamic-ring
/// rewiring (sim/fault.h) the bound covers the rewired edge the move would
/// actually take, not the stale topology edge.
[[nodiscard]] inline ActionFootprint action_footprint(
    const ExecutionState& state, AgentId agent) {
  const NodeId node = state.agent_node(agent);
  return ActionFootprint{node, state.live_next(node)};
}

/// True when the next actions of `a` and `b` have disjoint conservative
/// footprints (and therefore commute: executing them in either order reaches
/// the same configuration).
[[nodiscard]] inline bool independent_actions(const ExecutionState& state,
                                              AgentId a, AgentId b) {
  return !action_footprint(state, a).overlaps(action_footprint(state, b));
}

}  // namespace udring::sim
