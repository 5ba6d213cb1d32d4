#include "graph/batch_components.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/components.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace solarnet::graph {
namespace {

Graph random_graph(util::Rng& rng, std::size_t vertices, std::size_t edges) {
  Graph g(vertices);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<VertexId>(rng.uniform_below(vertices));
    const auto v = rng.bernoulli(0.1)
                       ? u
                       : static_cast<VertexId>(rng.uniform_below(vertices));
    g.add_edge(u, v, 1.0);
  }
  return g;
}

// Scalar reference: the masked components kernel with all vertices alive
// and edge e alive iff bit `lane` of edge_dead[e] is clear — exactly what
// the batch kernel claims to compute per lane.
std::size_t scalar_largest(const Graph& g, const Csr& csr,
                           const std::vector<std::uint64_t>& edge_dead,
                           unsigned lane) {
  AliveMask mask = AliveMask::all_alive(g);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if ((edge_dead[e] >> lane) & 1) mask.edge_alive.reset(e);
  }
  ComponentScratch scratch;
  ComponentResult result;
  connected_components(csr, mask, scratch, result);
  return result.largest_component_size();
}

TEST(BatchComponents, MatchesScalarKernelLaneByLane) {
  util::Rng rng(2024);
  const struct {
    std::size_t vertices, edges;
  } shapes[] = {{1, 0}, {2, 1}, {6, 9}, {40, 70}, {130, 260}};
  for (const auto& shape : shapes) {
    const Graph g = random_graph(rng, shape.vertices, shape.edges);
    const Csr csr(g);
    // Mixed regime: some edges alive everywhere (backbone), some dead
    // everywhere, the rest varying per lane.
    std::vector<std::uint64_t> edge_dead(g.edge_count());
    for (auto& w : edge_dead) {
      const double kind = rng.uniform();
      if (kind < 0.3) {
        w = 0;
      } else if (kind < 0.45) {
        w = ~std::uint64_t{0};
      } else {
        w = rng.next_u64() & rng.next_u64();  // ~25% dead per lane
      }
    }
    for (const unsigned lanes : {1u, 3u, 32u, 64u}) {
      BatchComponentScratch scratch;
      std::uint32_t largest[kBatchLanes] = {};
      batch_largest_components(csr, edge_dead, lanes, scratch, largest);
      for (unsigned t = 0; t < lanes; ++t) {
        EXPECT_EQ(largest[t], scalar_largest(g, csr, edge_dead, t))
            << shape.vertices << "v/" << shape.edges << "e lane " << t
            << " of " << lanes;
      }
    }
  }
}

// Query labels: roots of the lane's forest, so two query vertices share a
// label exactly when the scalar kernel puts them in one component; a vertex
// marked dark in a lane gets kIslandBase + v, kNoVertex gets kNoLabel.
TEST(BatchComponents, QueryLabelsMatchScalarComponents) {
  util::Rng rng(31);
  const Graph g = random_graph(rng, 50, 60);
  const Csr csr(g);
  std::vector<std::uint64_t> edge_dead(g.edge_count());
  for (auto& w : edge_dead) w = rng.next_u64() & rng.next_u64();
  std::vector<VertexId> queries = {0, 3, 7, 8, 20, 33, 49, kNoVertex};
  std::vector<std::uint64_t> dark(queries.size(), 0);
  dark[2] = 0x5;  // vertex 7 is an island in lanes 0 and 2
  std::vector<std::uint32_t> labels(kBatchLanes * queries.size());
  BatchComponentScratch scratch;
  std::uint32_t largest[kBatchLanes] = {};
  batch_largest_components(csr, edge_dead, kBatchLanes, scratch, largest,
                           {queries, dark, labels.data()});
  for (unsigned t = 0; t < kBatchLanes; ++t) {
    AliveMask mask = AliveMask::all_alive(g);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if ((edge_dead[e] >> t) & 1) mask.edge_alive.reset(e);
    }
    ComponentScratch comp_scratch;
    ComponentResult result;
    connected_components(csr, mask, comp_scratch, result);
    const std::uint32_t* lane = labels.data() + t * queries.size();
    EXPECT_EQ(lane[queries.size() - 1], kNoLabel);
    EXPECT_EQ(lane[2] == kIslandBase + 7, t == 0 || t == 2) << "lane " << t;
    for (std::size_t i = 0; i + 1 < queries.size(); ++i) {
      if (i == 2 && (t == 0 || t == 2)) continue;
      EXPECT_LT(lane[i], kIslandBase);
      for (std::size_t j = 0; j + 1 < queries.size(); ++j) {
        if (j == 2 && (t == 0 || t == 2)) continue;
        EXPECT_EQ(lane[i] == lane[j],
                  result.same_component(queries[i], queries[j]))
            << "lane " << t << " vertices " << queries[i] << ","
            << queries[j];
      }
    }
  }

  // Mismatched dark words and out-of-range vertices are rejected.
  std::vector<std::uint64_t> short_dark(queries.size() - 1, 0);
  EXPECT_THROW(batch_largest_components(csr, edge_dead, 4, scratch, largest,
                                        {queries, short_dark, labels.data()}),
               std::invalid_argument);
  const std::vector<VertexId> bad = {50};
  const std::vector<std::uint64_t> bad_dark = {0};
  EXPECT_THROW(batch_largest_components(csr, edge_dead, 4, scratch, largest,
                                        {bad, bad_dark, labels.data()}),
               std::invalid_argument);
}

TEST(BatchComponents, IgnoresBitsAtAndAboveLaneCount) {
  util::Rng rng(7);
  const Graph g = random_graph(rng, 20, 35);
  const Csr csr(g);
  std::vector<std::uint64_t> clean(g.edge_count());
  for (auto& w : clean) w = rng.next_u64() & 0xFF;
  std::vector<std::uint64_t> noisy = clean;
  for (auto& w : noisy) w |= ~std::uint64_t{0xFF};  // garbage above lane 7

  BatchComponentScratch scratch;
  std::uint32_t a[kBatchLanes] = {};
  std::uint32_t b[kBatchLanes] = {};
  batch_largest_components(csr, clean, 8, scratch, a);
  batch_largest_components(csr, noisy, 8, scratch, b);
  for (unsigned t = 0; t < 8; ++t) EXPECT_EQ(a[t], b[t]);
}

TEST(BatchComponents, ScratchReuseAcrossShapesIsClean) {
  // One scratch serving a large batch then a smaller one must not leak
  // state between calls (vectors shrink/regrow in place).
  util::Rng rng(99);
  BatchComponentScratch scratch;
  for (const std::size_t vertices : {60u, 5u, 33u}) {
    const Graph g = random_graph(rng, vertices, vertices * 2);
    const Csr csr(g);
    std::vector<std::uint64_t> edge_dead(g.edge_count());
    for (auto& w : edge_dead) w = rng.next_u64();
    std::uint32_t largest[kBatchLanes] = {};
    batch_largest_components(csr, edge_dead, 64, scratch, largest);
    for (unsigned t = 0; t < 64; ++t) {
      EXPECT_EQ(largest[t], scalar_largest(g, csr, edge_dead, t));
    }
  }
}

TEST(BatchComponents, EmptyGraph) {
  const Csr csr{Graph{}};
  BatchComponentScratch scratch;
  std::uint32_t largest[2] = {77, 77};
  batch_largest_components(csr, {}, 2, scratch, largest);
  EXPECT_EQ(largest[0], 0u);
  EXPECT_EQ(largest[1], 0u);
}

TEST(BatchComponents, ValidatesArguments) {
  util::Rng rng(1);
  const Graph g = random_graph(rng, 4, 5);
  const Csr csr(g);
  BatchComponentScratch scratch;
  std::uint32_t largest[kBatchLanes] = {};
  std::vector<std::uint64_t> wrong_size(g.edge_count() + 1, 0);
  EXPECT_THROW(batch_largest_components(csr, wrong_size, 4, scratch, largest),
               std::invalid_argument);
  std::vector<std::uint64_t> ok(g.edge_count(), 0);
  EXPECT_THROW(batch_largest_components(csr, ok, 0, scratch, largest),
               std::invalid_argument);
  EXPECT_THROW(batch_largest_components(csr, ok, 65, scratch, largest),
               std::invalid_argument);
}

}  // namespace
}  // namespace solarnet::graph
