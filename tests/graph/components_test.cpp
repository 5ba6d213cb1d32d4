#include "graph/components.h"

#include <gtest/gtest.h>

namespace solarnet::graph {
namespace {

ComponentResult components_of(const Graph& g, const AliveMask& mask) {
  ComponentScratch scratch;
  ComponentResult out;
  connected_components(Csr(g), mask, scratch, out);
  return out;
}

ComponentResult components_of(const Graph& g) {
  return components_of(g, AliveMask::all_alive(g));
}

bool connected(const Graph& g, const AliveMask& mask) {
  ComponentScratch scratch;
  return is_connected(Csr(g), mask, scratch);
}

Graph triangle_plus_isolated() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  return g;  // vertex 3 isolated
}

TEST(Components, FullGraph) {
  const Graph g = triangle_plus_isolated();
  const ComponentResult cc = components_of(g);
  EXPECT_EQ(cc.component_count(), 2u);
  EXPECT_TRUE(cc.same_component(0, 2));
  EXPECT_FALSE(cc.same_component(0, 3));
  EXPECT_EQ(cc.largest_component_size(), 3u);
}

TEST(Components, EmptyGraph) {
  const Graph g;
  const ComponentResult cc = components_of(g);
  EXPECT_EQ(cc.component_count(), 0u);
  EXPECT_EQ(cc.largest_component_size(), 0u);
}

TEST(Components, DeadEdgeSplits) {
  Graph g(3);
  g.add_edge(0, 1);
  const EdgeId bridge = g.add_edge(1, 2);
  AliveMask mask = AliveMask::all_alive(g);
  mask.edge_alive.reset(bridge);
  const ComponentResult cc = components_of(g, mask);
  EXPECT_EQ(cc.component_count(), 2u);
  EXPECT_TRUE(cc.same_component(0, 1));
  EXPECT_FALSE(cc.same_component(1, 2));
}

TEST(Components, DeadVertexExcluded) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  AliveMask mask = AliveMask::all_alive(g);
  mask.vertex_alive.reset(1);
  const ComponentResult cc = components_of(g, mask);
  EXPECT_EQ(cc.component[1], ComponentResult::kNoComponent);
  EXPECT_EQ(cc.component_count(), 2u);  // {0} and {2}
  EXPECT_FALSE(cc.same_component(0, 2));
  EXPECT_FALSE(cc.same_component(0, 1));
}

TEST(Components, ParallelEdgesDontConfuse) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  const ComponentResult cc = components_of(g);
  EXPECT_EQ(cc.component_count(), 1u);
}

TEST(Components, ComponentSizesSumToAliveVertices) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  AliveMask mask = AliveMask::all_alive(g);
  mask.vertex_alive.reset(5);
  const ComponentResult cc = components_of(g, mask);
  std::size_t total = 0;
  for (std::size_t s : cc.component_sizes) total += s;
  EXPECT_EQ(total, 5u);  // 6 vertices - 1 dead
}

TEST(IsConnected, Basics) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(connected(g, AliveMask::all_alive(g)));
  g.add_edge(1, 2);
  EXPECT_TRUE(connected(g, AliveMask::all_alive(g)));
}

TEST(IsConnected, VacuouslyTrueWhenNothingAlive) {
  Graph g(3);
  AliveMask mask = AliveMask::all_alive(g);
  mask.vertex_alive.assign(3, false);
  EXPECT_TRUE(connected(g, mask));
}

TEST(Components, SameComponentRejectsBadIds) {
  const Graph g = triangle_plus_isolated();
  const ComponentResult cc = components_of(g);
  EXPECT_FALSE(cc.same_component(0, 99));
  EXPECT_FALSE(cc.same_component(99, 0));
}

}  // namespace
}  // namespace solarnet::graph
