#include "graph/batch_components.h"

#include <algorithm>
#include <stdexcept>

namespace solarnet::graph {

void batch_largest_components(const Csr& csr,
                              std::span<const std::uint64_t> edge_dead,
                              unsigned lanes, BatchComponentScratch& scratch,
                              std::uint32_t* largest,
                              const BatchLabelQuery& query) {
  const std::size_t n = csr.vertex_count();
  const std::size_t m = csr.edge_count();
  if (edge_dead.size() != m) {
    throw std::invalid_argument(
        "batch_largest_components: edge_dead size mismatches edge count");
  }
  const std::size_t q = query.vertices.size();
  if (query.dark.size() != q) {
    throw std::invalid_argument(
        "batch_largest_components: query dark words mismatch its vertices");
  }
  if (q > 0 && n >= kIslandBase) {
    throw std::invalid_argument(
        "batch_largest_components: too many vertices to label");
  }
  for (const VertexId v : query.vertices) {
    if (v >= n && v != kNoVertex) {
      throw std::invalid_argument(
          "batch_largest_components: query vertex out of range");
    }
  }
  if (lanes == 0 || lanes > kBatchLanes) {
    throw std::invalid_argument(
        "batch_largest_components: lanes must be in [1, 64]");
  }
  const std::uint64_t lane_mask =
      lanes == kBatchLanes ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << lanes) - 1;

  // Backbone: one union per edge alive in every lane; edges dead in every
  // lane never participate; the rest are variable and handled per lane.
  scratch.backbone.reset(n);
  scratch.variable_edges.clear();
  for (std::size_t e = 0; e < m; ++e) {
    const std::uint64_t dead = edge_dead[e] & lane_mask;
    if (dead == 0) {
      scratch.backbone.unite(csr.edge_u(e), csr.edge_v(e));
    } else if (dead != lane_mask) {
      scratch.variable_edges.push_back(static_cast<std::uint32_t>(e));
    }
  }

  // Flatten the backbone forest so the per-lane find chains start at depth
  // <= 1, and record every component's size at its root. The backbone's
  // largest component is the floor every lane starts from (lane unions only
  // grow components).
  scratch.root.resize(n);
  scratch.base_size.resize(n);
  std::uint32_t backbone_largest = n > 0 ? 1 : 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto r = static_cast<std::uint32_t>(scratch.backbone.find(v));
    scratch.root[v] = r;
    const auto size = static_cast<std::uint32_t>(scratch.backbone.set_size(r));
    scratch.base_size[v] = size;
    backbone_largest = std::max(backbone_largest, size);
  }

  scratch.lane_parent.resize(n);
  scratch.lane_size.resize(n);
  for (unsigned t = 0; t < lanes; ++t) {
    std::copy(scratch.root.begin(), scratch.root.end(),
              scratch.lane_parent.begin());
    std::copy(scratch.base_size.begin(), scratch.base_size.end(),
              scratch.lane_size.begin());
    std::uint32_t* parent = scratch.lane_parent.data();
    std::uint32_t* size = scratch.lane_size.data();
    std::uint32_t lane_largest = backbone_largest;
    const auto find = [parent](std::uint32_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];  // path halving
        x = parent[x];
      }
      return x;
    };
    for (const std::uint32_t e : scratch.variable_edges) {
      if ((edge_dead[e] >> t) & 1) continue;  // dead in this lane
      std::uint32_t ra = find(csr.edge_u(e));
      std::uint32_t rb = find(csr.edge_v(e));
      if (ra == rb) continue;
      if (size[ra] < size[rb]) std::swap(ra, rb);
      parent[rb] = ra;
      size[ra] += size[rb];
      lane_largest = std::max(lane_largest, size[ra]);
    }
    largest[t] = lane_largest;

    std::uint32_t* labels = query.labels + std::size_t{t} * q;
    for (std::size_t i = 0; i < q; ++i) {
      const VertexId v = query.vertices[i];
      if (v == kNoVertex) {
        labels[i] = kNoLabel;
      } else if ((query.dark[i] >> t) & 1) {
        labels[i] = kIslandBase + v;
      } else {
        labels[i] = find(v);
      }
    }
  }
}

}  // namespace solarnet::graph
