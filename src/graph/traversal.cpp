#include "graph/traversal.h"

#include <algorithm>
#include <utility>

#include "graph/shortest_paths.h"

namespace solarnet::graph {

void reachable_from(const Csr& csr, const AliveMask& mask, VertexId source,
                    TraversalScratch& scratch, util::Bitset& out) {
  check_mask(csr, mask, "reachable_from");
  const std::size_t n = csr.vertex_count();
  out.assign(n, false);
  if (source >= n || !mask.vertex_alive[source]) return;
  // DFS over the flat adjacency; the frontier vector doubles as the stack.
  // Visiting a vertex implies it is alive, so each step only needs to check
  // the edge bit and the far endpoint's bit.
  scratch.frontier.clear();
  scratch.frontier.push_back(source);
  out.set(source);
  while (!scratch.frontier.empty()) {
    const VertexId v = scratch.frontier.back();
    scratch.frontier.pop_back();
    const auto neighbors = csr.neighbors(v);
    const auto edges = csr.edge_ids(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const VertexId w = neighbors[i];
      if (out[w] || !mask.edge_alive[edges[i]] || !mask.vertex_alive[w]) {
        continue;
      }
      out.set(w);
      scratch.frontier.push_back(w);
    }
  }
}

void bfs_hops(const Csr& csr, const AliveMask& mask, VertexId source,
              TraversalScratch& scratch, std::vector<std::uint32_t>& out) {
  check_mask(csr, mask, "bfs_hops");
  const std::size_t n = csr.vertex_count();
  out.assign(n, kUnreachableHops);
  if (source >= n || !mask.vertex_alive[source]) return;
  scratch.frontier.clear();
  scratch.frontier.push_back(source);
  out[source] = 0;
  for (std::size_t head = 0; head < scratch.frontier.size(); ++head) {
    const VertexId v = scratch.frontier[head];
    const auto neighbors = csr.neighbors(v);
    const auto edges = csr.edge_ids(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const VertexId w = neighbors[i];
      if (out[w] != kUnreachableHops || !mask.edge_alive[edges[i]] ||
          !mask.vertex_alive[w]) {
        continue;
      }
      out[w] = out[v] + 1;
      scratch.frontier.push_back(w);
    }
  }
}

ShortestPaths dijkstra(const Graph& g, const AliveMask& mask,
                       VertexId source) {
  std::vector<double> weight(g.edge_count());
  std::ranges::transform(g.edges(), weight.begin(), &Edge::weight);
  RoutingScratch tree;
  shortest_path_tree(Csr(g), weight, mask, source, tree);
  return {std::move(tree.distance), std::move(tree.parent_edge),
          std::move(tree.parent)};
}

}  // namespace solarnet::graph
