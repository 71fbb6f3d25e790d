// tests/support/state_access.h
//
// Test-only access to the parts of an ExecutionState that no legal action
// can corrupt: agent statuses, destinations and the intrusive queue links.
// The checker tests edit a *copy* of a state with it to build the corrupted
// configurations each model-invariant kind names, then hand the copy to
// check_model_invariants and IncrementalInvariantChecker. The fault tests
// re-judge every agent of a copy, to check that an action left the enabled
// set exact. The library never defines this struct; ExecutionState only
// declares it a friend.

#pragma once

#include "sim/execution_state.h"

namespace udring::sim {

struct ExecutionStateTestAccess {
  static void set_status(ExecutionState& state, AgentId id,
                         AgentStatus status) {
    state.agents_.at(id).status = status;
  }
  static void set_node(ExecutionState& state, AgentId id, NodeId node) {
    state.agents_.at(id).node = node;
  }
  /// Points q_node at `head` (ExecutionState::kNoAgent empties it); the
  /// stored queue length is left as it was.
  static void set_queue_head(ExecutionState& state, NodeId node, AgentId head) {
    state.nodes_.at(node).queue_head = head;
  }
  /// Sets the link from agent `id` to the agent behind it in its queue.
  static void set_queue_next(ExecutionState& state, AgentId id, AgentId next) {
    state.agents_.at(id).queue_next = next;
  }
  /// Re-judges every agent's enabledness, in ascending id order.
  static void refresh_every_agent(ExecutionState& state) {
    for (AgentId id = 0; id < state.agents_.size(); ++id) {
      state.refresh_enabled(id);
    }
  }
};

}  // namespace udring::sim
