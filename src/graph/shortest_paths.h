// Scratch-based shortest-path trees over a Csr: the one Dijkstra kernel.
//
// All working storage (distance/parent arrays plus the binary-heap vector)
// lives in a reusable RoutingScratch, one instance per worker thread, so
// the steady-state cost of a tree build is zero heap allocations — the
// traffic observer builds one tree per source per trial. graph::dijkstra
// (traversal.h) is the allocating one-shot form of shortest_path_tree.
//
// Determinism: a min-heap of (distance, vertex) pairs ordered by
// std::greater<> (std::push_heap / std::pop_heap), a stale-entry skip,
// strict-< relaxation and the Csr's adjacency order, which matches
// Graph::incident() half-edge for half-edge, fix every distance, parent and
// parent_edge choice. tests/graph/shortest_paths_test.cpp property-checks
// the trees bit for bit against a frozen std::priority_queue Dijkstra over
// the Graph (bench/reference/graph_kernels.h) on random graphs and masks;
// bench/perf_routing.cpp gates the same on the seed network.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"

namespace solarnet::graph {

// Reusable working storage for shortest_path_tree / shortest_path_to. The
// output arrays double as working state, so the tree is read directly from
// the scratch after the call. One instance per worker thread.
struct RoutingScratch {
  std::vector<double> distance;     // kUnreachable when not reachable
  std::vector<EdgeId> parent_edge;  // kInvalidEdge at source/unreachable
  std::vector<VertexId> parent;     // kInvalidVertex at source/unreachable
  std::vector<std::pair<double, VertexId>> heap;
};

// Builds the full shortest-path tree from `source` over the masked
// subgraph into `scratch` (arrays resized to the vertex count; heap left
// empty). `edge_weight[e]` is the length of Csr edge e — the Csr itself
// stores no weights, so callers snapshot them once (see
// routing::TrafficEngine). A dead source yields an all-unreachable tree.
// Throws std::invalid_argument when the source is out of range, when
// edge_weight does not cover every edge, or when the mask's sizes do not
// match the Csr. Allocation-free once the scratch is warm.
void shortest_path_tree(const Csr& csr, std::span<const double> edge_weight,
                        const AliveMask& mask, VertexId source,
                        RoutingScratch& scratch);

// Early-exit variant: stops as soon as `target` is settled (its distance
// and parent chain are final — everything nearer is settled first), leaving
// the rest of the arrays in a partially-explored state that callers must
// not read beyond the target's parent chain. Returns true when the target
// is reachable. Same validation and determinism rules as
// shortest_path_tree: the settled prefix is bit-identical to the full
// tree's.
bool shortest_path_to(const Csr& csr, std::span<const double> edge_weight,
                      const AliveMask& mask, VertexId source, VertexId target,
                      RoutingScratch& scratch);

}  // namespace solarnet::graph
