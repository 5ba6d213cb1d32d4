// Compressed-sparse-row view of a Graph: the adjacency of every vertex
// flattened into contiguous arrays so traversals touch two cache-friendly
// 32-bit streams instead of chasing one heap allocation per vertex. The
// edge endpoint arrays are stored struct-of-arrays for the union-find
// components kernel, which scans edges rather than adjacency.
//
// A Csr is a snapshot: build it once after the graph is complete (topology
// networks cache one per InfrastructureNetwork::csr()) and treat it as
// immutable. Half-edges appear in exactly the same order as
// Graph::incident(), so CSR-based traversals visit vertices in the same
// order as a walk over the Graph's adjacency lists and produce identical
// results.
#pragma once

#include <span>

#include "graph/graph.h"

namespace solarnet::graph {

class Csr {
 public:
  Csr() = default;
  explicit Csr(const Graph& g);

  std::size_t vertex_count() const noexcept { return offsets_.size() - 1; }
  std::size_t edge_count() const noexcept { return edge_u_.size(); }
  // Total adjacency entries (2 per edge, 1 per self-loop).
  std::size_t half_edge_count() const noexcept { return neighbors_.size(); }

  // Parallel neighbor / edge-id slices for vertex v: neighbors(v)[i] is
  // reached via edge edge_ids(v)[i].
  std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }
  std::span<const EdgeId> edge_ids(VertexId v) const noexcept {
    return {edge_ids_.data() + offsets_[v], edge_ids_.data() + offsets_[v + 1]};
  }

  VertexId edge_u(EdgeId e) const noexcept { return edge_u_[e]; }
  VertexId edge_v(EdgeId e) const noexcept { return edge_v_[e]; }

  std::span<const std::uint32_t> offsets() const noexcept { return offsets_; }

 private:
  // offsets_[v] .. offsets_[v+1] index into neighbors_/edge_ids_.
  std::vector<std::uint32_t> offsets_{0};
  std::vector<VertexId> neighbors_;
  std::vector<EdgeId> edge_ids_;
  std::vector<VertexId> edge_u_;
  std::vector<VertexId> edge_v_;
};

// Throws std::invalid_argument ("<kernel>: mask/Csr size mismatch") unless
// the mask has exactly one vertex bit per Csr vertex and one edge bit per
// Csr edge. Every Csr kernel checks this first, because util::Bitset
// indexing is unchecked.
void check_mask(const Csr& csr, const AliveMask& mask, const char* kernel);

}  // namespace solarnet::graph
