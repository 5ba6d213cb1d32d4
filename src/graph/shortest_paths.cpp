#include "graph/shortest_paths.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "graph/traversal.h"

namespace solarnet::graph {

namespace {

using HeapItem = std::pair<double, VertexId>;

// Resets the scratch for a run from `source`. Returns false when the
// source is dead (all-unreachable tree).
bool prepare(const Csr& csr, std::span<const double> edge_weight,
             const AliveMask& mask, VertexId source, RoutingScratch& s) {
  if (source >= csr.vertex_count()) {
    throw std::invalid_argument("shortest_path_tree: source out of range");
  }
  if (edge_weight.size() != csr.edge_count()) {
    throw std::invalid_argument(
        "shortest_path_tree: edge_weight size does not match edge count");
  }
  check_mask(csr, mask, "shortest_path_tree");
  const std::size_t n = csr.vertex_count();
  s.distance.assign(n, kUnreachable);
  s.parent_edge.assign(n, kInvalidEdge);
  s.parent.assign(n, kInvalidVertex);
  s.heap.clear();
  if (!mask.vertex_alive[source]) return false;
  s.distance[source] = 0.0;
  s.heap.push_back({0.0, source});
  return true;
}

// One settle step: pops the nearest queued vertex (std::pop_heap — the
// same algorithm std::priority_queue::pop runs), relaxes its CSR
// adjacency, pushes improved neighbors. Returns the settled vertex, or
// kInvalidVertex for a stale entry (callers just keep popping).
VertexId settle_next(const Csr& csr, std::span<const double> edge_weight,
                     const AliveMask& mask, RoutingScratch& s) {
  std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
  const auto [dist, v] = s.heap.back();
  s.heap.pop_back();
  if (dist > s.distance[v]) return kInvalidVertex;  // stale entry
  const std::span<const VertexId> neighbors = csr.neighbors(v);
  const std::span<const EdgeId> edges = csr.edge_ids(v);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const EdgeId e = edges[i];
    const VertexId w = neighbors[i];
    // v itself is alive (it holds a finite distance), so traversability
    // reduces to the edge and the far endpoint.
    if (!mask.edge_alive[e] || !mask.vertex_alive[w]) continue;
    const double next = dist + edge_weight[e];
    if (next < s.distance[w]) {
      s.distance[w] = next;
      s.parent[w] = v;
      s.parent_edge[w] = e;
      s.heap.push_back({next, w});
      std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
    }
  }
  return v;
}

}  // namespace

void shortest_path_tree(const Csr& csr, std::span<const double> edge_weight,
                        const AliveMask& mask, VertexId source,
                        RoutingScratch& scratch) {
  if (!prepare(csr, edge_weight, mask, source, scratch)) return;
  while (!scratch.heap.empty()) {
    settle_next(csr, edge_weight, mask, scratch);
  }
}

bool shortest_path_to(const Csr& csr, std::span<const double> edge_weight,
                      const AliveMask& mask, VertexId source, VertexId target,
                      RoutingScratch& scratch) {
  if (target >= csr.vertex_count()) {
    throw std::invalid_argument("shortest_path_to: target out of range");
  }
  if (!prepare(csr, edge_weight, mask, source, scratch)) return false;
  while (!scratch.heap.empty()) {
    // The settled vertex's distance and parent chain are final the moment
    // it pops non-stale, so the search can stop at the target.
    if (settle_next(csr, edge_weight, mask, scratch) == target) {
      scratch.heap.clear();
      return true;
    }
  }
  return false;
}

}  // namespace solarnet::graph
