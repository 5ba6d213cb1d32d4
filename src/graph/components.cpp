#include "graph/components.h"

#include <algorithm>

namespace solarnet::graph {

std::size_t ComponentResult::largest_component_size() const noexcept {
  if (component_sizes.empty()) return 0;
  return *std::max_element(component_sizes.begin(), component_sizes.end());
}

bool ComponentResult::same_component(VertexId a, VertexId b) const {
  if (a >= component.size() || b >= component.size()) return false;
  if (component[a] == kNoComponent || component[b] == kNoComponent) {
    return false;
  }
  return component[a] == component[b];
}

namespace {

// Shared dense-relabel pass: maps union-find roots to component indices in
// order of first-seen alive vertex and fills sizes. `alive(v)` gates which
// vertices participate.
template <typename AliveFn>
void relabel(std::size_t n, UnionFind& uf,
             std::vector<std::uint32_t>& root_to_dense, AliveFn alive,
             ComponentResult& out) {
  out.component.assign(n, ComponentResult::kNoComponent);
  out.component_sizes.clear();
  root_to_dense.assign(n, ComponentResult::kNoComponent);
  for (VertexId v = 0; v < n; ++v) {
    if (!alive(v)) continue;
    const std::size_t root = uf.find(v);
    if (root_to_dense[root] == ComponentResult::kNoComponent) {
      root_to_dense[root] =
          static_cast<std::uint32_t>(out.component_sizes.size());
      out.component_sizes.push_back(0);
    }
    out.component[v] = root_to_dense[root];
    ++out.component_sizes[root_to_dense[root]];
  }
}

}  // namespace

void connected_components(const Csr& csr, const AliveMask& mask,
                          ComponentScratch& scratch, ComponentResult& out) {
  check_mask(csr, mask, "connected_components");
  const std::size_t n = csr.vertex_count();
  const std::size_t m = csr.edge_count();
  scratch.uf.reset(n);
  // mask_for_failures leaves every vertex alive, so the common trial-loop
  // case skips the per-endpoint checks entirely.
  const bool all_vertices_alive = mask.vertex_alive.all();
  if (all_vertices_alive) {
    for (EdgeId e = 0; e < m; ++e) {
      if (!mask.edge_alive[e]) continue;
      scratch.uf.unite(csr.edge_u(e), csr.edge_v(e));
    }
    relabel(n, scratch.uf, scratch.root_to_dense,
            [](VertexId) { return true; }, out);
  } else {
    for (EdgeId e = 0; e < m; ++e) {
      if (!mask.edge_alive[e]) continue;
      const VertexId u = csr.edge_u(e);
      const VertexId v = csr.edge_v(e);
      if (!mask.vertex_alive[u] || !mask.vertex_alive[v]) continue;
      scratch.uf.unite(u, v);
    }
    relabel(n, scratch.uf, scratch.root_to_dense,
            [&](VertexId v) { return mask.vertex_alive[v]; }, out);
  }
}

bool is_connected(const Csr& csr, const AliveMask& mask,
                  ComponentScratch& scratch) {
  check_mask(csr, mask, "is_connected");
  const std::size_t n = csr.vertex_count();
  const std::size_t m = csr.edge_count();
  scratch.uf.reset(n);
  std::size_t alive = mask.vertex_alive.count();
  std::size_t merges = 0;
  const bool all_vertices_alive = alive == n;
  for (EdgeId e = 0; e < m; ++e) {
    if (!mask.edge_alive[e]) continue;
    const VertexId u = csr.edge_u(e);
    const VertexId v = csr.edge_v(e);
    if (!all_vertices_alive &&
        (!mask.vertex_alive[u] || !mask.vertex_alive[v])) {
      continue;
    }
    if (scratch.uf.unite(u, v)) {
      // Early exit once the alive vertices form a single set.
      if (++merges + 1 == alive) return true;
    }
  }
  return alive <= 1;
}

}  // namespace solarnet::graph
