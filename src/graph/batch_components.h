// 64-way batched largest-component kernel over a Csr.
//
// The Monte-Carlo batch layout (sim::TrialBatch) stores one u64 per cable
// whose bit t says "dead in trial lane t". Mapped down to edges, a whole
// batch of 64 trials becomes one `edge_dead` word per edge, and the lanes
// share almost all of their structure: an edge that is alive in every lane
// belongs to every lane's subgraph. This kernel exploits that with a
// shared-backbone union-find:
//
//   1. one "backbone" union-find unites every edge whose dead word is zero
//      (alive in all lanes) — paid once per batch instead of once per lane;
//   2. the backbone forest is flattened (every vertex points at its root),
//      and per lane the flattened parent/size arrays are memcpy-restored
//      and only the *variable* edges (dead somewhere, alive in this lane)
//      are united on top.
//
// Per lane the cost is O(vertices) words of copy plus a union per variable
// alive edge on an already-flattened forest — no mask building, no dense
// relabel, no per-lane full edge scan. The per-lane largest component size
// is bit-identical (it is an integer) to
// ComponentResult::largest_component_size() of the scalar masked kernel
// with all vertices alive, which is what the connectivity observers need.
//
// The kernel also labels a fixed set of query vertices per lane (the trial
// pipeline's attachment nodes, continent anchors and demand endpoints):
// after a lane's unions, each query vertex gets its root in that lane's
// forest, so two query vertices share a label exactly when they share a
// component. That is one find per query vertex on a forest that starts
// flat, instead of a full per-lane decomposition.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/union_find.h"

namespace solarnet::graph {

// Reusable working storage; allocation-free once warm (the trial loops
// keep one per worker).
struct BatchComponentScratch {
  UnionFind backbone;
  std::vector<std::uint32_t> root;       // flattened backbone parent per vertex
  std::vector<std::uint32_t> base_size;  // backbone component size, valid at roots
  std::vector<std::uint32_t> lane_parent;
  std::vector<std::uint32_t> lane_size;
  std::vector<std::uint32_t> variable_edges;
};

inline constexpr unsigned kBatchLanes = 64;

// Component labels of query vertices. A vertex's label is its root in the
// lane's union-find (below kIslandBase), or kIslandBase + v when the caller
// marks it dark in that lane, or kNoLabel for kNoVertex, which matches
// nothing an evaluator tests against. A dark landing node (every cable
// dead) is not "nowhere": it is its own island, and parties attached to it
// still reach each other over the local terrestrial network. Only equality
// between labels of one lane means anything.
inline constexpr std::uint32_t kIslandBase = 0x80000000u;
inline constexpr std::uint32_t kNoLabel = ~std::uint32_t{0};
inline constexpr VertexId kNoVertex = ~VertexId{0};

// The query of batch_largest_components: `vertices` (kNoVertex allowed),
// `dark[i]` with bit t set when vertices[i] is an island in lane t, and
// `labels` with room for lanes * vertices.size() entries, written
// lane-major (lane t's labels at labels + t * vertices.size()).
struct BatchLabelQuery {
  std::span<const VertexId> vertices;
  std::span<const std::uint64_t> dark;
  std::uint32_t* labels = nullptr;
};

// Computes, for every lane t < lanes, the size of the largest connected
// component of the subgraph of `csr` whose edges are those with bit t of
// `edge_dead[e]` clear (all vertices alive; isolated vertices count as
// size-1 components, matching the scalar components kernel under a
// cable-failure mask). `edge_dead.size()` must equal `csr.edge_count()`;
// bits at lane positions >= lanes are ignored. `largest` must have room
// for `lanes` entries. With a non-empty `query`, also writes every lane's
// query labels. Throws std::invalid_argument on a size mismatch (edge_dead,
// or query.dark against query.vertices), a query vertex out of range, a
// labelled graph of kIslandBase or more vertices, or lanes outside [1, 64].
void batch_largest_components(const Csr& csr,
                              std::span<const std::uint64_t> edge_dead,
                              unsigned lanes, BatchComponentScratch& scratch,
                              std::uint32_t* largest,
                              const BatchLabelQuery& query = {});

}  // namespace solarnet::graph
