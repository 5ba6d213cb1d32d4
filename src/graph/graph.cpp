#include "graph/graph.h"

#include <cmath>

namespace solarnet::graph {

VertexId Graph::add_vertex() {
  adjacency_.emplace_back();
  return static_cast<VertexId>(adjacency_.size() - 1);
}

EdgeId Graph::add_edge(VertexId u, VertexId v, double weight) {
  if (u >= adjacency_.size() || v >= adjacency_.size()) {
    throw std::out_of_range("Graph::add_edge: vertex out of range");
  }
  if (!std::isfinite(weight) || weight < 0.0) {
    throw std::invalid_argument("Graph::add_edge: invalid weight");
  }
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({u, v, weight});
  adjacency_[u].push_back({v, id});
  if (u != v) adjacency_[v].push_back({u, id});
  return id;
}

AliveMask AliveMask::all_alive(const Graph& g) {
  AliveMask mask;
  mask.reset_to_all_alive(g);
  return mask;
}

void AliveMask::reset_to_all_alive(const Graph& g) {
  vertex_alive.assign(g.vertex_count(), true);
  edge_alive.assign(g.edge_count(), true);
}

}  // namespace solarnet::graph
