// Connected-component decomposition over masked graphs.
//
// One kernel over a prebuilt Csr: all working storage (union-find,
// dense-relabel table, the result vectors) lives in a reusable
// ComponentScratch and the caller's ComponentResult, so the steady-state
// cost of a masked decomposition is zero heap allocations. Monte-Carlo
// style loops build one Csr and one scratch per worker and call these per
// trial. Component indices are dense in order of first-seen (lowest-id)
// alive vertex, independent of the union-find merge order.
#pragma once

#include <vector>

#include "graph/csr.h"
#include "graph/union_find.h"

namespace solarnet::graph {

struct ComponentResult {
  // component[v] = dense component index, or kNoComponent for dead vertices.
  std::vector<std::uint32_t> component;
  std::vector<std::size_t> component_sizes;

  static constexpr std::uint32_t kNoComponent = ~std::uint32_t{0};

  std::size_t component_count() const noexcept {
    return component_sizes.size();
  }
  std::size_t largest_component_size() const noexcept;
  bool same_component(VertexId a, VertexId b) const;
};

// Reusable working storage for the Csr components kernel.
struct ComponentScratch {
  UnionFind uf;
  std::vector<std::uint32_t> root_to_dense;
};

// Decomposes the masked subgraph into `out`, reusing `scratch` and `out`'s
// storage: dead vertices get kNoComponent; dead edges (and edges touching
// dead vertices) are ignored. Throws std::invalid_argument when the mask's
// sizes do not match the Csr's dimensions.
void connected_components(const Csr& csr, const AliveMask& mask,
                          ComponentScratch& scratch, ComponentResult& out);

}  // namespace solarnet::graph
