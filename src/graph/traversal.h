// BFS/DFS reachability over masked graphs, plus the one-shot Dijkstra.
//
// The traversals run over a prebuilt Csr and reuse every piece of working
// storage (frontier, visited bits, the output arrays) through a
// TraversalScratch, so they are allocation-free once warm. dijkstra is the
// allocating one-shot form of graph::shortest_path_tree
// (graph/shortest_paths.h) for callers that hold a Graph, not a Csr.
#pragma once

#include <limits>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "util/bitset.h"

namespace solarnet::graph {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

// Reusable working storage for BFS/DFS kernels: a vector-backed frontier
// (used as a FIFO ring for BFS, a LIFO stack for DFS) plus a visited
// bitset. One instance per worker thread.
struct TraversalScratch {
  std::vector<VertexId> frontier;
  util::Bitset visited;
};

// Fills `out` (resized to the vertex count) with the vertices reachable
// from `source` in the masked subgraph, including the source itself when
// alive; all clear when the source is dead or out of range. Throws
// std::invalid_argument when the mask's sizes do not match the Csr.
void reachable_from(const Csr& csr, const AliveMask& mask, VertexId source,
                    TraversalScratch& scratch, util::Bitset& out);

// Fills `out` (resized to the vertex count) with hop distances (edge
// counts) from source; kUnreachableHops when not reachable or dead. Same
// mask check as reachable_from.
inline constexpr std::uint32_t kUnreachableHops = ~std::uint32_t{0};
void bfs_hops(const Csr& csr, const AliveMask& mask, VertexId source,
              TraversalScratch& scratch, std::vector<std::uint32_t>& out);

struct ShortestPaths {
  std::vector<double> distance;       // kUnreachable when not reachable
  std::vector<EdgeId> parent_edge;    // kInvalidEdge at source/unreachable
  std::vector<VertexId> parent;       // kInvalidVertex at source/unreachable
};

// Dijkstra using edge weights (lengths): shortest_path_tree over a Csr
// built from `g`, returned by value. Throws std::invalid_argument if the
// source is out of range or the mask's sizes do not match the graph.
ShortestPaths dijkstra(const Graph& g, const AliveMask& mask, VertexId source);

}  // namespace solarnet::graph
