#include "graph/csr.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/components.h"
#include "graph/graph.h"
#include "reference/graph_kernels.h"
#include "util/rng.h"

namespace solarnet::graph {
namespace {

// Random multigraph with self-loops and parallel edges — the shapes real
// cable systems produce (several cables between the same two landing
// stations; a segment can return to its own station in synthetic sets).
Graph random_graph(util::Rng& rng, std::size_t vertices, std::size_t edges) {
  Graph g(vertices);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<VertexId>(rng.uniform_below(vertices));
    // ~10% self-loops, and repeated (u, v) pairs occur naturally.
    const auto v = rng.bernoulli(0.1)
                       ? u
                       : static_cast<VertexId>(rng.uniform_below(vertices));
    g.add_edge(u, v, 1.0);
  }
  return g;
}

AliveMask random_mask(util::Rng& rng, const Graph& g, double vertex_dead_p,
                      double edge_dead_p) {
  AliveMask mask = AliveMask::all_alive(g);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (rng.bernoulli(vertex_dead_p)) mask.vertex_alive.reset(v);
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (rng.bernoulli(edge_dead_p)) mask.edge_alive.reset(e);
  }
  return mask;
}

TEST(Csr, EmptyGraph) {
  const Csr csr{Graph{}};
  EXPECT_EQ(csr.vertex_count(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
  EXPECT_EQ(csr.half_edge_count(), 0u);
}

TEST(Csr, MirrorsAdjacencyIncludingSelfLoopsAndParallels) {
  Graph g(3);
  const EdgeId ab1 = g.add_edge(0, 1);
  const EdgeId ab2 = g.add_edge(0, 1);  // parallel
  const EdgeId loop = g.add_edge(2, 2);  // self-loop
  const Csr csr(g);
  ASSERT_EQ(csr.vertex_count(), 3u);
  ASSERT_EQ(csr.edge_count(), 3u);
  // A self-loop contributes one half-edge, a normal edge two.
  EXPECT_EQ(csr.half_edge_count(), 5u);
  ASSERT_EQ(csr.neighbors(0).size(), 2u);
  EXPECT_EQ(csr.edge_ids(0)[0], ab1);
  EXPECT_EQ(csr.edge_ids(0)[1], ab2);
  ASSERT_EQ(csr.neighbors(2).size(), 1u);
  EXPECT_EQ(csr.neighbors(2)[0], 2u);
  EXPECT_EQ(csr.edge_ids(2)[0], loop);
  EXPECT_EQ(csr.edge_u(ab1), 0u);
  EXPECT_EQ(csr.edge_v(ab1), 1u);
}

// Half-edge order must equal Graph::incident order — the property the
// bit-identical-results guarantee rests on.
TEST(Csr, HalfEdgeOrderMatchesIncident) {
  util::Rng rng(7);
  const Graph g = random_graph(rng, 40, 120);
  const Csr csr(g);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto incident = g.incident(v);
    const auto nbrs = csr.neighbors(v);
    const auto eids = csr.edge_ids(v);
    ASSERT_EQ(nbrs.size(), incident.size());
    ASSERT_EQ(eids.size(), incident.size());
    for (std::size_t i = 0; i < incident.size(); ++i) {
      EXPECT_EQ(nbrs[i], incident[i].neighbor);
      EXPECT_EQ(eids[i], incident[i].edge);
    }
  }
}

// Property sweep: on randomized masked graphs the CSR components kernel
// must return exactly what the frozen Graph-tier kernel
// (bench/reference/graph_kernels.h) returns.
TEST(Csr, ScratchKernelsMatchGraphKernelsOnRandomGraphs) {
  util::Rng rng(2024);
  ComponentScratch comp_scratch;
  ComponentResult cc;

  for (int round = 0; round < 30; ++round) {
    const std::size_t vertices = 2 + rng.uniform_below(60);
    const std::size_t edges = rng.uniform_below(3 * vertices);
    const Graph g = random_graph(rng, vertices, edges);
    const Csr csr(g);
    const AliveMask mask = random_mask(rng, g, 0.2, 0.3);

    const ComponentResult ref = reference::connected_components(g, mask);
    connected_components(csr, mask, comp_scratch, cc);
    EXPECT_EQ(cc.component, ref.component) << "round " << round;
    EXPECT_EQ(cc.component_sizes, ref.component_sizes) << "round " << round;
  }
}

// Scratch reuse across wildly different graphs must not leak state.
TEST(Csr, ScratchReuseAcrossGraphSizesIsDeterministic) {
  util::Rng rng(5);
  ComponentScratch scratch;
  ComponentResult first, again;

  const Graph big = random_graph(rng, 80, 200);
  const Graph small = random_graph(rng, 5, 4);
  const Csr big_csr(big);
  const Csr small_csr(small);
  const AliveMask big_mask = random_mask(rng, big, 0.1, 0.2);
  const AliveMask small_mask = AliveMask::all_alive(small);

  connected_components(big_csr, big_mask, scratch, first);
  // Pollute the scratch with a different-shaped problem, then repeat.
  connected_components(small_csr, small_mask, scratch, again);
  connected_components(big_csr, big_mask, scratch, again);
  EXPECT_EQ(again.component, first.component);
  EXPECT_EQ(again.component_sizes, first.component_sizes);
}

TEST(Csr, KernelsRejectMismatchedMask) {
  Graph g(3);
  g.add_edge(0, 1);
  const Csr csr(g);
  AliveMask wrong;
  wrong.vertex_alive.assign(2, true);  // wrong vertex count
  wrong.edge_alive.assign(1, true);
  ComponentScratch scratch;
  ComponentResult cc;
  EXPECT_THROW(connected_components(csr, wrong, scratch, cc),
               std::invalid_argument);
  // A short edge mask is rejected too, not read past its end.
  AliveMask short_edges = AliveMask::all_alive(g);
  short_edges.edge_alive.assign(0, true);
  EXPECT_THROW(connected_components(csr, short_edges, scratch, cc),
               std::invalid_argument);
}

}  // namespace
}  // namespace solarnet::graph
