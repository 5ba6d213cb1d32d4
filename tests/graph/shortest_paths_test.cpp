#include "graph/shortest_paths.h"

#include <gtest/gtest.h>

#include <vector>

#include "reference/graph_kernels.h"
#include "util/rng.h"

namespace solarnet::graph {
namespace {

std::vector<double> weights_of(const Graph& g) {
  std::vector<double> w(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) w[e] = g.edge(e).weight;
  return w;
}

// Random connected-ish graph: a spine path plus extra random edges,
// including the odd self-loop and parallel edge, with varied weights.
Graph random_graph(util::Rng& rng, std::size_t n, std::size_t extra_edges) {
  Graph g(n);
  for (VertexId v = 1; v < n; ++v) {
    g.add_edge(v - 1, v, 1.0 + rng.uniform() * 9.0);
  }
  for (std::size_t i = 0; i < extra_edges; ++i) {
    const auto u = static_cast<VertexId>(rng.uniform_below(n));
    const auto v = static_cast<VertexId>(rng.uniform_below(n));
    g.add_edge(u, v, 0.5 + rng.uniform() * 20.0);  // may repeat or self-loop
  }
  return g;
}

AliveMask random_mask(util::Rng& rng, const Graph& g, double dead_fraction) {
  AliveMask mask = AliveMask::all_alive(g);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (rng.uniform() < dead_fraction) mask.edge_alive.reset(e);
  }
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (rng.uniform() < dead_fraction / 2.0) mask.vertex_alive.reset(v);
  }
  return mask;
}

// The kernel and its one-shot graph::dijkstra form against the frozen
// std::priority_queue Dijkstra (bench/reference/graph_kernels.h).
void expect_matches_dijkstra(const Graph& g, const AliveMask& mask,
                             VertexId source, RoutingScratch& scratch) {
  const Csr csr(g);
  const std::vector<double> w = weights_of(g);
  shortest_path_tree(csr, w, mask, source, scratch);
  const ShortestPaths sp = reference::dijkstra(g, mask, source);
  const ShortestPaths one_shot = dijkstra(g, mask, source);
  ASSERT_EQ(scratch.distance.size(), sp.distance.size());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    // Bit-identical, not approximately equal: the kernels must run the
    // same float operations in the same order.
    EXPECT_EQ(scratch.distance[v], sp.distance[v]) << "vertex " << v;
    EXPECT_EQ(scratch.parent[v], sp.parent[v]) << "vertex " << v;
    EXPECT_EQ(scratch.parent_edge[v], sp.parent_edge[v]) << "vertex " << v;
  }
  EXPECT_EQ(one_shot.distance, scratch.distance);
  EXPECT_EQ(one_shot.parent, scratch.parent);
  EXPECT_EQ(one_shot.parent_edge, scratch.parent_edge);
}

TEST(ShortestPathTree, MatchesDijkstraOnSmallGraph) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 2.0);
  RoutingScratch scratch;
  expect_matches_dijkstra(g, AliveMask::all_alive(g), 0, scratch);
}

TEST(ShortestPathTree, PropertySweepVsDijkstra) {
  util::Rng rng(20260808);
  RoutingScratch scratch;  // deliberately reused across every case
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.uniform_below(40);
    const Graph g = random_graph(rng, n, rng.uniform_below(3 * n));
    const AliveMask mask = random_mask(rng, g, rng.uniform() * 0.5);
    const auto source = static_cast<VertexId>(rng.uniform_below(n));
    expect_matches_dijkstra(g, mask, source, scratch);
  }
}

TEST(ShortestPathTree, DeadSourceIsAllUnreachable) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  AliveMask mask = AliveMask::all_alive(g);
  mask.vertex_alive.reset(0);
  RoutingScratch scratch;
  shortest_path_tree(Csr(g), weights_of(g), mask, 0, scratch);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(scratch.distance[v], kUnreachable);
    EXPECT_EQ(scratch.parent_edge[v], kInvalidEdge);
  }
}

TEST(ShortestPathTree, ScratchReuseIsDeterministic) {
  util::Rng rng(7);
  const Graph g = random_graph(rng, 30, 60);
  const Csr csr(g);
  const std::vector<double> w = weights_of(g);
  const AliveMask mask = random_mask(rng, g, 0.3);
  RoutingScratch warm;
  // Warm the scratch on a different source, then compare against a cold one.
  shortest_path_tree(csr, w, mask, 5, warm);
  shortest_path_tree(csr, w, mask, 0, warm);
  RoutingScratch cold;
  shortest_path_tree(csr, w, mask, 0, cold);
  EXPECT_EQ(warm.distance, cold.distance);
  EXPECT_EQ(warm.parent, cold.parent);
  EXPECT_EQ(warm.parent_edge, cold.parent_edge);
}

TEST(ShortestPathTo, EarlyExitSettlesTarget) {
  util::Rng rng(11);
  RoutingScratch scratch;
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 2 + rng.uniform_below(30);
    const Graph g = random_graph(rng, n, rng.uniform_below(2 * n));
    const AliveMask mask = random_mask(rng, g, rng.uniform() * 0.4);
    const auto src = static_cast<VertexId>(rng.uniform_below(n));
    const auto dst = static_cast<VertexId>(rng.uniform_below(n));
    const ShortestPaths sp = reference::dijkstra(g, mask, src);
    const bool reachable = shortest_path_to(Csr(g), weights_of(g), mask, src,
                                            dst, scratch);
    EXPECT_EQ(reachable, sp.distance[dst] != kUnreachable);
    if (!reachable) continue;
    EXPECT_EQ(scratch.distance[dst], sp.distance[dst]);
    // The target's whole parent chain must be final.
    for (VertexId v = dst; scratch.parent_edge[v] != kInvalidEdge;
         v = scratch.parent[v]) {
      EXPECT_EQ(scratch.parent_edge[v], sp.parent_edge[v]);
      EXPECT_EQ(scratch.parent[v], sp.parent[v]);
      EXPECT_EQ(scratch.distance[v], sp.distance[v]);
    }
  }
}

TEST(ShortestPathTree, ValidatesArguments) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  const Csr csr(g);
  const AliveMask mask = AliveMask::all_alive(g);
  const std::vector<double> w = weights_of(g);
  RoutingScratch scratch;
  EXPECT_THROW(shortest_path_tree(csr, w, mask, 2, scratch),
               std::invalid_argument);
  const std::vector<double> short_w;  // wrong edge count
  EXPECT_THROW(shortest_path_tree(csr, short_w, mask, 0, scratch),
               std::invalid_argument);
  EXPECT_THROW(shortest_path_to(csr, w, mask, 0, 9, scratch),
               std::invalid_argument);
  // Mask sizes must match the Csr: the kernels index the bits unchecked.
  AliveMask wrong = mask;
  wrong.vertex_alive.assign(1, true);
  EXPECT_THROW(shortest_path_tree(csr, w, wrong, 0, scratch),
               std::invalid_argument);
  EXPECT_THROW(shortest_path_to(csr, w, wrong, 0, 1, scratch),
               std::invalid_argument);
  EXPECT_THROW(dijkstra(g, wrong, 0), std::invalid_argument);
  wrong = mask;
  wrong.edge_alive.assign(0, true);
  EXPECT_THROW(shortest_path_tree(csr, w, wrong, 0, scratch),
               std::invalid_argument);
  EXPECT_THROW(shortest_path_to(csr, w, wrong, 0, 1, scratch),
               std::invalid_argument);
}

// 0 --1-- 1 --1-- 2
//  \------5------/      (direct heavy edge 0-2)
Graph weighted_triangle() {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  return g;
}

TEST(Dijkstra, PrefersLightPath) {
  const Graph g = weighted_triangle();
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 2.0);  // via vertex 1, not the 5.0 edge
  EXPECT_EQ(sp.parent[2], 1u);
  EXPECT_EQ(sp.parent[1], 0u);
  EXPECT_EQ(sp.parent[0], kInvalidVertex);
}

TEST(Dijkstra, DirectWhenCheaper) {
  Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 10.0);
  g.add_edge(0, 2, 5.0);
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 5.0);
  EXPECT_EQ(sp.parent[2], 0u);
}

TEST(Dijkstra, UnreachableIsInfinity) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_EQ(sp.distance[2], kUnreachable);
  EXPECT_EQ(sp.parent[2], kInvalidVertex);
}

TEST(Dijkstra, MaskChangesRoute) {
  const Graph g = weighted_triangle();
  AliveMask mask = AliveMask::all_alive(g);
  mask.vertex_alive.reset(1);  // force the heavy direct edge
  const ShortestPaths sp = dijkstra(g, mask, 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 5.0);
}

TEST(Dijkstra, SourceProperties) {
  const Graph g = weighted_triangle();
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 1);
  EXPECT_DOUBLE_EQ(sp.distance[1], 0.0);
  EXPECT_EQ(sp.parent[1], kInvalidVertex);
}

TEST(Dijkstra, ThrowsOnBadSource) {
  const Graph g = weighted_triangle();
  EXPECT_THROW(dijkstra(g, AliveMask::all_alive(g), 99),
               std::invalid_argument);
}

TEST(Dijkstra, DeadSourceHasNoDistances) {
  const Graph g = weighted_triangle();
  AliveMask mask = AliveMask::all_alive(g);
  mask.vertex_alive.reset(0);
  const ShortestPaths sp = dijkstra(g, mask, 0);
  EXPECT_EQ(sp.distance[0], kUnreachable);
  EXPECT_EQ(sp.distance[1], kUnreachable);
}

TEST(Dijkstra, ZeroWeightEdges) {
  Graph g(3);
  g.add_edge(0, 1, 0.0);
  g.add_edge(1, 2, 0.0);
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 0.0);
}

TEST(Dijkstra, LargeLineGraph) {
  constexpr std::size_t kN = 10000;
  Graph g(kN);
  for (std::size_t i = 1; i < kN; ++i) {
    g.add_edge(static_cast<VertexId>(i - 1), static_cast<VertexId>(i), 1.0);
  }
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_DOUBLE_EQ(sp.distance[kN - 1], static_cast<double>(kN - 1));
}

}  // namespace
}  // namespace solarnet::graph
