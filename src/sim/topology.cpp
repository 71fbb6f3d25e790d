#include "sim/topology.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace udring::sim {

Topology Topology::ring(std::size_t node_count) {
  if (node_count == 0) {
    throw std::invalid_argument("Topology: a ring needs at least one node");
  }
  Topology t;
  t.size_ = node_count;
  t.name_ = "ring";
  return t;
}

Topology Topology::virtual_ring(std::size_t size, std::vector<NodeId> labels,
                                std::vector<std::size_t> ports,
                                std::string name) {
  if (size == 0) {
    throw std::invalid_argument("Topology: a virtual ring needs at least one step");
  }
  if (!labels.empty() && labels.size() != size) {
    throw std::invalid_argument("Topology: labels must cover every virtual node");
  }
  if (!ports.empty() && ports.size() != size) {
    throw std::invalid_argument("Topology: ports must cover every virtual node");
  }
  Topology t;
  t.size_ = size;
  t.labels_ = std::move(labels);
  t.ports_ = std::move(ports);
  t.name_ = std::move(name);
  return t;
}

std::size_t Topology::underlying_node_count() const noexcept {
  if (labels_.empty()) return size_;
  return *std::max_element(labels_.begin(), labels_.end()) + 1;
}

}  // namespace udring::sim
