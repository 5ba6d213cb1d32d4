// A compact undirected multigraph used as the connectivity substrate for
// every network in the library (submarine, Intertubes, ITU). Vertices and
// edges are dense integer ids so the Monte-Carlo engine can use flat
// bitmasks for alive/dead state; payloads (landing points, cables) live in
// the topology layer and reference these ids.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bitset.h"

namespace solarnet::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr VertexId kInvalidVertex = ~VertexId{0};
inline constexpr EdgeId kInvalidEdge = ~EdgeId{0};

struct Edge {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  double weight = 1.0;  // typically length in km
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t vertex_count) : adjacency_(vertex_count) {}

  VertexId add_vertex();

  // Adds an undirected edge. Self-loops and parallel edges are allowed
  // (several cables can join the same pair of landing stations). Throws on
  // out-of-range vertices or non-finite/negative weight.
  EdgeId add_edge(VertexId u, VertexId v, double weight = 1.0);

  std::size_t vertex_count() const noexcept { return adjacency_.size(); }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  const Edge& edge(EdgeId e) const {
    if (e >= edges_.size()) throw std::out_of_range("Graph::edge");
    return edges_[e];
  }

  // Flat edge array in id order — the connectivity kernels scan this
  // directly instead of chasing per-vertex adjacency lists.
  std::span<const Edge> edges() const noexcept { return edges_; }

  // (neighbor, edge-id) pairs incident to v.
  struct Incidence {
    VertexId neighbor;
    EdgeId edge;
  };
  std::span<const Incidence> incident(VertexId v) const {
    if (v >= adjacency_.size()) throw std::out_of_range("Graph::incident");
    return adjacency_[v];
  }

  std::size_t degree(VertexId v) const { return incident(v).size(); }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<Incidence>> adjacency_;
};

// A subgraph view expressed as alive/dead masks over an existing graph.
// This is what a failure trial produces: the structure is shared, only the
// masks differ. The masks are word-packed util::Bitsets so a warm mask can
// be refilled in place (reset_to_all_alive + per-edge kills) without any
// allocation — the Monte-Carlo loops rely on this.
struct AliveMask {
  util::Bitset vertex_alive;
  util::Bitset edge_alive;

  static AliveMask all_alive(const Graph& g);

  // In-place variant: resizes both masks to g's dimensions and sets every
  // bit. Allocation-free once the masks are warm.
  void reset_to_all_alive(const Graph& g);
};

}  // namespace solarnet::graph
