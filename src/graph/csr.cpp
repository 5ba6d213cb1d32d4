#include "graph/csr.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace solarnet::graph {

Csr::Csr(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::size_t half_edges = 0;
  for (VertexId v = 0; v < n; ++v) half_edges += g.degree(v);
  if (half_edges > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Csr: graph too large for 32-bit offsets");
  }

  offsets_.clear();
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  neighbors_.reserve(half_edges);
  edge_ids_.reserve(half_edges);
  for (VertexId v = 0; v < n; ++v) {
    for (const auto& [neighbor, edge] : g.incident(v)) {
      neighbors_.push_back(neighbor);
      edge_ids_.push_back(edge);
    }
    offsets_.push_back(static_cast<std::uint32_t>(neighbors_.size()));
  }

  edge_u_.reserve(g.edge_count());
  edge_v_.reserve(g.edge_count());
  for (const Edge& e : g.edges()) {
    edge_u_.push_back(e.u);
    edge_v_.push_back(e.v);
  }
}

void check_mask(const Csr& csr, const AliveMask& mask, const char* kernel) {
  if (mask.vertex_alive.size() != csr.vertex_count() ||
      mask.edge_alive.size() != csr.edge_count()) {
    throw std::invalid_argument(std::string(kernel) +
                                ": mask/Csr size mismatch");
  }
}

}  // namespace solarnet::graph
