// Frozen reference graph kernels: verbatim copies of the Graph-tier
// connected_components, reachable_from, bfs_hops and dijkstra that lived in
// src/graph/ beside the Csr kernels. They walk Graph::incident() and the
// Graph's edge array with the traversable() predicate below, allocate their
// results per call, and run std::priority_queue Dijkstra — an
// implementation that shares nothing with the Csr kernels except the
// union-find. Tests and bench gates that check the Csr kernels (and the
// dijkstra forward) bit for bit compare against these, reachable_from and
// bfs_hops are the oracles of the components and Dijkstra property tests,
// and perf_routing times its old path on the frozen dijkstra. Do not route
// the kernels through graph/csr.h or graph/shortest_paths.h (only the
// ShortestPaths result type comes from there); they are deliberately
// frozen.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "graph/graph.h"
#include "graph/shortest_paths.h"
#include "graph/union_find.h"

namespace solarnet::reference {

inline constexpr std::uint32_t kUnreachableHops = ~std::uint32_t{0};

namespace detail {

// An edge is traversable when it is alive and both endpoints are alive.
inline bool traversable(const graph::AliveMask& mask, const graph::Graph& g,
                        graph::EdgeId e) {
  if (e >= mask.edge_alive.size() || !mask.edge_alive[e]) return false;
  const graph::Edge& ed = g.edge(e);
  return mask.vertex_alive[ed.u] && mask.vertex_alive[ed.v];
}

// Dense-relabel pass: maps union-find roots to component indices in order
// of first-seen alive vertex and fills sizes.
template <typename AliveFn>
void relabel(std::size_t n, graph::UnionFind& uf,
             std::vector<std::uint32_t>& root_to_dense, AliveFn alive,
             graph::ComponentResult& out) {
  out.component.assign(n, graph::ComponentResult::kNoComponent);
  out.component_sizes.clear();
  root_to_dense.assign(n, graph::ComponentResult::kNoComponent);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (!alive(v)) continue;
    const std::size_t root = uf.find(v);
    if (root_to_dense[root] == graph::ComponentResult::kNoComponent) {
      root_to_dense[root] =
          static_cast<std::uint32_t>(out.component_sizes.size());
      out.component_sizes.push_back(0);
    }
    out.component[v] = root_to_dense[root];
    ++out.component_sizes[root_to_dense[root]];
  }
}

}  // namespace detail

// Components of the masked subgraph: dead vertices get kNoComponent; dead
// edges (and edges touching dead vertices) are ignored.
inline graph::ComponentResult connected_components(
    const graph::Graph& g, const graph::AliveMask& mask) {
  const std::size_t n = g.vertex_count();
  graph::UnionFind uf(n);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!detail::traversable(mask, g, e)) continue;
    const graph::Edge& ed = g.edge(e);
    uf.unite(ed.u, ed.v);
  }
  graph::ComponentResult result;
  std::vector<std::uint32_t> root_to_dense;
  detail::relabel(
      n, uf, root_to_dense,
      [&](graph::VertexId v) {
        return v < mask.vertex_alive.size() && mask.vertex_alive[v];
      },
      result);
  return result;
}

// Vertices reachable from `source` in the masked subgraph (including the
// source itself when alive); all false if the source is dead.
inline std::vector<bool> reachable_from(const graph::Graph& g,
                                        const graph::AliveMask& mask,
                                        graph::VertexId source) {
  std::vector<bool> visited(g.vertex_count(), false);
  if (source >= g.vertex_count() || source >= mask.vertex_alive.size() ||
      !mask.vertex_alive[source]) {
    return visited;
  }
  std::vector<graph::VertexId> stack{source};
  visited[source] = true;
  while (!stack.empty()) {
    const graph::VertexId v = stack.back();
    stack.pop_back();
    for (const auto& [neighbor, edge] : g.incident(v)) {
      if (visited[neighbor] || !detail::traversable(mask, g, edge)) continue;
      visited[neighbor] = true;
      stack.push_back(neighbor);
    }
  }
  return visited;
}

// Hop distances (edge counts) from source; kUnreachableHops when not
// reachable or dead.
inline std::vector<std::uint32_t> bfs_hops(const graph::Graph& g,
                                           const graph::AliveMask& mask,
                                           graph::VertexId source) {
  std::vector<std::uint32_t> hops(g.vertex_count(), kUnreachableHops);
  if (source >= g.vertex_count() || source >= mask.vertex_alive.size() ||
      !mask.vertex_alive[source]) {
    return hops;
  }
  // Vector-backed FIFO: `head` chases push_back, so the frontier never
  // allocates per-node deque blocks and its storage is a single array.
  std::vector<graph::VertexId> frontier{source};
  hops[source] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const graph::VertexId v = frontier[head];
    for (const auto& [neighbor, edge] : g.incident(v)) {
      if (hops[neighbor] != kUnreachableHops ||
          !detail::traversable(mask, g, edge)) {
        continue;
      }
      hops[neighbor] = hops[v] + 1;
      frontier.push_back(neighbor);
    }
  }
  return hops;
}

// Dijkstra using edge weights (lengths). Throws std::invalid_argument if
// the source is out of range.
inline graph::ShortestPaths dijkstra(const graph::Graph& g,
                                     const graph::AliveMask& mask,
                                     graph::VertexId source) {
  if (source >= g.vertex_count()) {
    throw std::invalid_argument("dijkstra: source out of range");
  }
  graph::ShortestPaths sp;
  sp.distance.assign(g.vertex_count(), graph::kUnreachable);
  sp.parent_edge.assign(g.vertex_count(), graph::kInvalidEdge);
  sp.parent.assign(g.vertex_count(), graph::kInvalidVertex);
  if (source >= mask.vertex_alive.size() || !mask.vertex_alive[source]) {
    return sp;
  }

  using Item = std::pair<double, graph::VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  sp.distance[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [dist, v] = heap.top();
    heap.pop();
    if (dist > sp.distance[v]) continue;  // stale entry
    for (const auto& [neighbor, edge] : g.incident(v)) {
      if (!detail::traversable(mask, g, edge)) continue;
      const double next = dist + g.edge(edge).weight;
      if (next < sp.distance[neighbor]) {
        sp.distance[neighbor] = next;
        sp.parent[neighbor] = v;
        sp.parent_edge[neighbor] = edge;
        heap.push({next, neighbor});
      }
    }
  }
  return sp;
}

}  // namespace solarnet::reference
