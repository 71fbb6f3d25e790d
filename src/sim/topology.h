// udring/sim/topology.h
//
// The immutable structure an execution runs on.
//
// The paper's model is a unidirectional ring, and §5 extends it to trees
// (Euler-tour virtual ring) and general networks (spanning tree + tour).
// All of those are *closed walks*: every virtual node has exactly one
// successor, and following successors visits every virtual node once per
// lap. Topology captures exactly that — a successor function plus size —
// so the execution core never needs to know whether it is driving the
// plain ring, a tree's Euler tour, or an Eulerian circuit of a multigraph.
//
// Two optional views decorate the walk for embeddings (built by src/embed):
//  - labels:  labels()[v] = the underlying network node visited at virtual
//             position v (virtual → tree/graph node). A token released at v
//             marks the v-th walk step — a (node, out-port) mark — which is
//             all the paper's algorithms need (§5 modelling note).
//  - ports:   ports()[v] = the out-port (index into the underlying node's
//             adjacency) crossed by the move v → next(v). Lets reports and
//             patrol examples narrate virtual moves as physical edges.
//
// Representation: every walk (ring, Euler tour, Eulerian circuit) is laid
// out in walk order, so the successor is the implicit v+1 mod size — no
// table, no memory, branch-predictable in the hot loop. The goal oracles
// and the schedule-trace replay contract rely on that order (virtual
// position order == walk order). Dynamic-ring rewiring (sim/fault.h)
// changes the live successor inside ExecutionState, not here.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.h"

namespace udring::sim {

class Topology {
 public:
  /// Empty topology (size 0); a default-constructed RunSpec field. Not
  /// runnable — Instance rejects it.
  Topology() = default;

  /// The paper's unidirectional n-ring: successor v+1 mod n. n must be ≥ 1.
  [[nodiscard]] static Topology ring(std::size_t node_count);

  /// A virtual ring of `size` steps with implicit successor v+1 mod size,
  /// carrying the embedding views. `labels` (may be empty) maps each virtual
  /// position to its underlying network node; `ports` (may be empty) gives
  /// the out-port crossed by each step. Non-empty views must have exactly
  /// `size` entries.
  [[nodiscard]] static Topology virtual_ring(std::size_t size,
                                             std::vector<NodeId> labels,
                                             std::vector<std::size_t> ports = {},
                                             std::string name = "virtual-ring");

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// The forward neighbour of `v` — the only direction agents can move.
  [[nodiscard]] NodeId next(NodeId v) const noexcept {
    return v + 1 == size_ ? 0 : v + 1;
  }

  /// Forward walk distance from `from` to `to`: the number of next() steps.
  [[nodiscard]] std::size_t distance(NodeId from, NodeId to) const noexcept {
    return to >= from ? to - from : size_ - from + to;
  }

  // ---- embedding views ------------------------------------------------------

  [[nodiscard]] bool has_labels() const noexcept { return !labels_.empty(); }

  /// Underlying network node at virtual position v; identity when the
  /// topology carries no embedding (a plain ring *is* its own network).
  [[nodiscard]] NodeId label(NodeId v) const noexcept {
    return labels_.empty() ? v : labels_[v];
  }
  [[nodiscard]] const std::vector<NodeId>& labels() const noexcept {
    return labels_;
  }

  [[nodiscard]] bool has_ports() const noexcept { return !ports_.empty(); }

  /// Out-port (adjacency index at label(v)) crossed by the step v → next(v);
  /// 0 when the topology carries no port view.
  [[nodiscard]] std::size_t port(NodeId v) const noexcept {
    return ports_.empty() ? 0 : ports_[v];
  }
  [[nodiscard]] const std::vector<std::size_t>& ports() const noexcept {
    return ports_;
  }

  /// Number of distinct underlying nodes (max label + 1); size() when there
  /// is no embedding.
  [[nodiscard]] std::size_t underlying_node_count() const noexcept;

  /// Family tag for reports and trace provenance ("ring", "euler-tree", …).
  [[nodiscard]] std::string_view name() const noexcept { return name_; }

 private:
  std::size_t size_ = 0;
  std::vector<NodeId> labels_;         // empty = identity
  std::vector<std::size_t> ports_;     // empty = no port view
  std::string name_ = "ring";
};

}  // namespace udring::sim
