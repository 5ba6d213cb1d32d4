#include "sim/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/components.h"
#include "reference/graph_kernels.h"
#include "topology/network.h"
#include "util/rng.h"

namespace solarnet::sim {
namespace {

// Same random-network generator as sweep_test: `nodes` random points,
// `cables` random point-to-point cables with lengths spanning repeaterless
// (< 150 km) through dozens-of-repeaters, including occasional duplicate
// endpoints (parallel cables).
topo::InfrastructureNetwork random_network(util::Rng& rng, std::size_t nodes,
                                           std::size_t cables) {
  topo::InfrastructureNetwork net("random");
  for (std::size_t i = 0; i < nodes; ++i) {
    net.add_node({"n" + std::to_string(i),
                  {rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0)},
                  "",
                  topo::NodeKind::kLandingPoint,
                  true});
  }
  for (std::size_t i = 0; i < cables; ++i) {
    const auto a = static_cast<topo::NodeId>(rng.uniform_below(nodes));
    auto b = static_cast<topo::NodeId>(rng.uniform_below(nodes));
    if (b == a) b = (b + 1) % nodes;
    topo::Cable cable;
    cable.name = "c" + std::to_string(i);
    cable.segments = {{a, b, rng.uniform(40.0, 4000.0)}};
    net.add_cable(std::move(cable));
  }
  return net;
}

// Naive reference for step g of a first-dead axis: dead set
// {c : first_dead[c] <= g}, aggregates from the frozen Graph-tier kernels.
IncrementalAggregates naive_step(const topo::InfrastructureNetwork& net,
                                 const std::vector<std::uint32_t>& first_dead,
                                 std::size_t g) {
  std::vector<bool> dead(net.cable_count(), false);
  IncrementalAggregates agg;
  for (std::size_t c = 0; c < net.cable_count(); ++c) {
    dead[c] = first_dead[c] <= g;
    if (!dead[c]) ++agg.alive_cables;
  }
  agg.lit_nodes =
      net.connected_node_count() - net.unreachable_nodes(dead).size();
  const auto components =
      reference::connected_components(net.graph(), net.mask_for_failures(dead));
  // The walk's union-find spans all graph nodes, so isolated vertices are
  // singleton components and the largest is floored at 1 on non-empty
  // graphs. mask_for_failures keeps every vertex alive, so the masked
  // decomposition agrees — the max() documents the convention.
  agg.largest = std::max<std::size_t>(components.largest_component_size(),
                                      net.node_count() > 0 ? 1 : 0);
  return agg;
}

TEST(IncrementalTest, CountsMatchNetwork) {
  util::Rng rng(11);
  const auto net = random_network(rng, 9, 14);
  const IncrementalConnectivity inc(net);
  EXPECT_EQ(inc.cable_count(), net.cable_count());
  EXPECT_EQ(inc.node_count(), net.node_count());
  EXPECT_EQ(inc.connected_node_count(), net.connected_node_count());
}

TEST(IncrementalTest, BucketRejectsSizeMismatch) {
  util::Rng rng(12);
  const auto net = random_network(rng, 6, 8);
  const IncrementalConnectivity inc(net);
  IncrementalScratch scratch;
  const std::vector<std::uint32_t> wrong(net.cable_count() + 1, 0);
  EXPECT_THROW(inc.bucket_by_first_dead(wrong, 4, scratch),
               std::invalid_argument);
  const std::vector<std::uint32_t> empty;
  EXPECT_THROW(inc.bucket_by_first_dead(empty, 4, scratch),
               std::invalid_argument);
}

TEST(IncrementalTest, BucketGroupsByFirstDeadInAscendingCableOrder) {
  util::Rng rng(13);
  const auto net = random_network(rng, 10, 25);
  const IncrementalConnectivity inc(net);
  const std::size_t steps = 5;
  std::vector<std::uint32_t> first_dead(net.cable_count());
  for (auto& v : first_dead) {
    v = static_cast<std::uint32_t>(rng.uniform_below(steps + 1));
  }
  IncrementalScratch s;
  inc.bucket_by_first_dead(first_dead, steps, s);

  ASSERT_EQ(s.bucket_start.size(), steps + 2);
  EXPECT_EQ(s.bucket_start.front(), 0u);
  EXPECT_EQ(s.bucket_start.back(), net.cable_count());
  ASSERT_EQ(s.bucket_cables.size(), net.cable_count());
  for (std::size_t bucket = 0; bucket <= steps; ++bucket) {
    for (std::uint32_t i = s.bucket_start[bucket];
         i < s.bucket_start[bucket + 1]; ++i) {
      const std::uint32_t c = s.bucket_cables[i];
      // Membership: every cable sits in the bucket of its first-dead step.
      EXPECT_EQ(first_dead[c], bucket);
      // Ascending cable order inside the bucket — the activation (and
      // therefore union-find merge) order is a pure function of the axis.
      if (i > s.bucket_start[bucket]) {
        EXPECT_LT(s.bucket_cables[i - 1], c);
      }
    }
  }
}

TEST(IncrementalTest, WalkWithZeroStepsNeverInvokesCallback) {
  util::Rng rng(14);
  const auto net = random_network(rng, 6, 8);
  const IncrementalConnectivity inc(net);
  IncrementalScratch s;
  const std::vector<std::uint32_t> first_dead(net.cable_count(), 0);
  inc.bucket_by_first_dead(first_dead, 0, s);
  std::size_t calls = 0;
  inc.walk(0, s, [&](std::size_t, const IncrementalAggregates&) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(IncrementalTest, OneStepAllAliveReproducesFullNetwork) {
  util::Rng rng(15);
  const auto net = random_network(rng, 12, 20);
  const IncrementalConnectivity inc(net);
  IncrementalScratch s;
  // Every cable in the always-alive bucket: step 0 sees the whole network.
  const std::vector<std::uint32_t> alive(net.cable_count(), 1);
  inc.bucket_by_first_dead(alive, 1, s);
  std::size_t calls = 0;
  inc.walk(1, s, [&](std::size_t g, const IncrementalAggregates& agg) {
    ++calls;
    EXPECT_EQ(g, 0u);
    EXPECT_EQ(agg.alive_cables, net.cable_count());
    EXPECT_EQ(agg.lit_nodes, net.connected_node_count());
    const auto full = reference::connected_components(
        net.graph(), graph::AliveMask::all_alive(net.graph()));
    EXPECT_EQ(agg.largest, full.largest_component_size());
  });
  EXPECT_EQ(calls, 1u);
}

// The core property: for random networks and random monotone axes, the
// resurrection walk reports, at every step g, exactly the aggregates of the
// alive set {c : first_dead[c] > g} — checked against per-step full
// recomputation through the frozen Graph-tier kernels.
TEST(IncrementalTest, WalkMatchesNaivePerStepRecompute) {
  util::Rng rng(2024);
  for (int round = 0; round < 8; ++round) {
    const std::size_t nodes = 4 + rng.uniform_below(20);
    const std::size_t cables = 3 + rng.uniform_below(40);
    const auto net = random_network(rng, nodes, cables);
    const IncrementalConnectivity inc(net);
    const std::size_t steps = 1 + rng.uniform_below(12);
    std::vector<std::uint32_t> first_dead(net.cable_count());
    for (auto& v : first_dead) {
      v = static_cast<std::uint32_t>(rng.uniform_below(steps + 1));
    }
    IncrementalScratch s;
    inc.bucket_by_first_dead(first_dead, steps, s);
    std::vector<IncrementalAggregates> walked(steps);
    std::size_t calls = 0;
    inc.walk(steps, s, [&](std::size_t g, const IncrementalAggregates& agg) {
      walked[g] = agg;
      ++calls;
    });
    ASSERT_EQ(calls, steps);
    for (std::size_t g = 0; g < steps; ++g) {
      const IncrementalAggregates expected = naive_step(net, first_dead, g);
      EXPECT_EQ(walked[g].alive_cables, expected.alive_cables)
          << "round " << round << " step " << g;
      EXPECT_EQ(walked[g].lit_nodes, expected.lit_nodes)
          << "round " << round << " step " << g;
      EXPECT_EQ(walked[g].largest, expected.largest)
          << "round " << round << " step " << g;
    }
  }
}

// Re-using one scratch across axes of different widths must not leak state
// between walks — the engines keep one warm scratch per worker.
TEST(IncrementalTest, ScratchReuseAcrossAxesIsClean) {
  util::Rng rng(77);
  const auto net = random_network(rng, 10, 18);
  const IncrementalConnectivity inc(net);
  IncrementalScratch s;
  for (int round = 0; round < 6; ++round) {
    const std::size_t steps = 1 + rng.uniform_below(9);
    std::vector<std::uint32_t> first_dead(net.cable_count());
    for (auto& v : first_dead) {
      v = static_cast<std::uint32_t>(rng.uniform_below(steps + 1));
    }
    inc.bucket_by_first_dead(first_dead, steps, s);
    inc.walk(steps, s, [&](std::size_t g, const IncrementalAggregates& agg) {
      const IncrementalAggregates expected = naive_step(net, first_dead, g);
      EXPECT_EQ(agg.alive_cables, expected.alive_cables);
      EXPECT_EQ(agg.lit_nodes, expected.lit_nodes);
      EXPECT_EQ(agg.largest, expected.largest);
    });
  }
}

}  // namespace
}  // namespace solarnet::sim
