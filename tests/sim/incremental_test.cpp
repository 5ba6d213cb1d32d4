#include "sim/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/connectivity.h"
#include "datasets/land.h"
#include "datasets/submarine.h"
#include "gic/failure_model.h"
#include "graph/components.h"
#include "graph/union_find.h"
#include "reference/graph_kernels.h"
#include "reference/incremental.h"
#include "sim/sweep.h"
#include "sim/timeline_engine.h"
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

topo::NodeId add_point(topo::InfrastructureNetwork& net, util::Rng& rng) {
  return net.add_node({"n" + std::to_string(net.node_count()),
                       {rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0)},
                       "",
                       topo::NodeKind::kLandingPoint,
                       true});
}

topo::Cable make_cable(std::size_t id,
                       std::vector<std::pair<topo::NodeId, topo::NodeId>> hops) {
  topo::Cable cable;
  cable.name = "c" + std::to_string(id);
  for (const auto& [a, b] : hops) cable.segments.push_back({a, b, 100.0});
  return cable;
}

// A network the junction fold has work on: `hubs` shared nodes, then
// `cables` cables of mixed shapes — multi-segment paths whose intermediate
// nodes no other cable touches, branching cables, stubs on fresh nodes (a
// one-node stub among them: a single self-loop segment), point-to-point
// hub links — plus one cable whose segments form three disconnected pieces
// (one of them a single node) and two nodes that no cable touches.
topo::InfrastructureNetwork folded_network(util::Rng& rng, std::size_t hubs,
                                           std::size_t cables) {
  topo::InfrastructureNetwork net("folded");
  for (std::size_t i = 0; i < hubs; ++i) add_point(net, rng);
  const auto hub = [&] {
    return static_cast<topo::NodeId>(rng.uniform_below(hubs));
  };
  for (std::size_t i = 0; i < cables; ++i) {
    std::vector<std::pair<topo::NodeId, topo::NodeId>> hops;
    switch (rng.uniform_below(4)) {
      case 0: {  // hub -> private nodes -> hub (or a private end)
        topo::NodeId at = hub();
        for (std::size_t k = 1 + rng.uniform_below(3); k > 0; --k) {
          const topo::NodeId next = add_point(net, rng);
          hops.emplace_back(at, next);
          at = next;
        }
        if (rng.uniform_below(2) == 0) hops.emplace_back(at, hub());
        break;
      }
      case 1: {  // stub: private nodes only, 1..4 of them
        topo::NodeId at = add_point(net, rng);
        const std::size_t extra = rng.uniform_below(4);
        if (extra == 0) hops.emplace_back(at, at);
        for (std::size_t k = 0; k < extra; ++k) {
          const topo::NodeId next = add_point(net, rng);
          hops.emplace_back(at, next);
          at = next;
        }
        break;
      }
      case 2: {  // branching: a trunk to a private node, two branches
        const topo::NodeId mid = add_point(net, rng);
        hops.emplace_back(hub(), mid);
        hops.emplace_back(mid, hub());
        hops.emplace_back(mid, add_point(net, rng));
        break;
      }
      default: {  // point-to-point between two hubs
        const topo::NodeId a = hub();
        topo::NodeId b = hub();
        if (b == a) b = static_cast<topo::NodeId>((b + 1) % hubs);
        hops.emplace_back(a, b);
        break;
      }
    }
    net.add_cable(make_cable(i, std::move(hops)));
  }
  // Three pieces: one hangs off a hub, one touches only fresh nodes, and
  // one is a lone node on a self-loop segment.
  const topo::NodeId p = add_point(net, rng);
  const topo::NodeId q = add_point(net, rng);
  const topo::NodeId r = add_point(net, rng);
  const topo::NodeId lone = add_point(net, rng);
  net.add_cable(make_cable(cables, {{hub(), p}, {q, r}, {lone, lone}}));
  add_point(net, rng);
  add_point(net, rng);
  return net;
}

// Per cable, the junctions it touches: nodes on >= 2 cables, or every node
// of a cable whose own segments form more than one piece. Derived from the
// network alone, independently of the fold.
std::vector<std::size_t> junctions_per_cable(
    const topo::InfrastructureNetwork& net) {
  std::vector<bool> junction(net.node_count(), false);
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    junction[n] = net.cables_at(n).size() >= 2;
  }
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const std::vector<topo::NodeId> nodes = net.cable(c).endpoints();
    graph::UnionFind pieces(nodes.size());
    const auto at = [&](topo::NodeId n) {
      return static_cast<std::size_t>(
          std::find(nodes.begin(), nodes.end(), n) - nodes.begin());
    };
    for (const topo::CableSegment& seg : net.cable(c).segments) {
      pieces.unite(at(seg.a), at(seg.b));
    }
    if (pieces.set_count() > 1) {
      for (const topo::NodeId n : nodes) junction[n] = true;
    }
  }
  std::vector<std::size_t> junctions(net.cable_count(), 0);
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    for (const topo::NodeId n : net.cable(c).endpoints()) {
      if (junction[n]) ++junctions[c];
    }
  }
  return junctions;
}

// Random first-dead axis: about half the cables alive across the whole
// axis (the shape of real trials), the rest dying uniformly over it.
std::vector<std::uint32_t> random_axis(util::Rng& rng, std::size_t cables,
                                       std::size_t steps) {
  std::vector<std::uint32_t> first_dead(cables);
  for (auto& v : first_dead) {
    v = static_cast<std::uint32_t>(rng.uniform_below(2) == 0
                                       ? steps
                                       : rng.uniform_below(steps + 1));
  }
  return first_dead;
}

// Per-step aggregates of one bucket + walk, indexed by step.
std::vector<IncrementalAggregates> walk_axis(
    const IncrementalConnectivity& inc,
    const std::vector<std::uint32_t>& first_dead, std::size_t steps) {
  IncrementalScratch s;
  inc.bucket_by_first_dead(first_dead, steps, s);
  std::vector<IncrementalAggregates> out(steps);
  inc.walk(steps, s, [&](std::size_t g, const IncrementalAggregates& agg) {
    out[g] = agg;
  });
  return out;
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

// Each bucket holds its stubs, then its spurs, then its bridges, each in
// the bucket of its first dead step and in ascending cable order. The kinds
// are derived here from the network alone: a stub touches no junction, a
// spur exactly one.
TEST(IncrementalTest, BucketGroupsByFirstDeadInAscendingCableOrder) {
  util::Rng rng(13);
  const auto net = folded_network(rng, 6, 30);
  const std::vector<std::size_t> junctions = junctions_per_cable(net);
  const auto kind_of = [&](std::size_t c) {
    return junctions[c] == 0   ? IncrementalConnectivity::kStub
           : junctions[c] == 1 ? IncrementalConnectivity::kSpur
                               : IncrementalConnectivity::kBridge;
  };
  std::size_t seen[IncrementalConnectivity::kKinds] = {};
  for (std::size_t c = 0; c < net.cable_count(); ++c) ++seen[kind_of(c)];
  // Every kind must be present for the grouping to mean anything.
  for (const std::size_t count : seen) ASSERT_GT(count, 0u);

  const IncrementalConnectivity inc(net);
  const std::size_t steps = 5;
  const std::size_t kinds = IncrementalConnectivity::kKinds;
  std::vector<std::uint32_t> first_dead(net.cable_count());
  for (auto& v : first_dead) {
    v = static_cast<std::uint32_t>(rng.uniform_below(steps + 1));
  }
  IncrementalScratch s;
  inc.bucket_by_first_dead(first_dead, steps, s);

  ASSERT_EQ(s.bucket_start.size(), (steps + 1) * kinds + 1);
  EXPECT_EQ(s.bucket_start.front(), 0u);
  EXPECT_EQ(s.bucket_start.back(), net.cable_count());
  ASSERT_EQ(s.bucket_cables.size(), net.cable_count());
  for (std::size_t bucket = 0; bucket <= steps; ++bucket) {
    for (std::size_t kind = 0; kind < kinds; ++kind) {
      const std::size_t range = bucket * kinds + kind;
      for (std::uint32_t i = s.bucket_start[range];
           i < s.bucket_start[range + 1]; ++i) {
        const std::uint32_t c = s.bucket_cables[i];
        // Membership: every cable sits in the bucket of its first-dead
        // step, in the range of its kind.
        EXPECT_EQ(first_dead[c], bucket);
        EXPECT_EQ(kind_of(c), kind) << "cable " << c;
        // Ascending cable order inside the range — the union-find merge
        // order is a pure function of the axis.
        if (i > s.bucket_start[range]) {
          EXPECT_LT(s.bucket_cables[i - 1], c);
        }
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

// The same property on networks the fold reshapes: multi-segment cables
// with private intermediate nodes, stubs (one-node stubs among them), a
// two-piece cable and cable-less nodes. One scratch serves every round, so
// stale fold state would show too.
TEST(IncrementalTest, FoldedWalkMatchesNaivePerStepRecompute) {
  util::Rng rng(4049);
  IncrementalScratch s;
  for (int round = 0; round < 12; ++round) {
    const std::size_t hubs = 2 + rng.uniform_below(10);
    const std::size_t cables = 1 + rng.uniform_below(30);
    const auto net = folded_network(rng, hubs, cables);
    const IncrementalConnectivity inc(net);
    const std::size_t steps = 1 + rng.uniform_below(12);
    const std::vector<std::uint32_t> first_dead =
        random_axis(rng, net.cable_count(), steps);
    inc.bucket_by_first_dead(first_dead, steps, s);
    std::size_t calls = 0;
    inc.walk(steps, s, [&](std::size_t g, const IncrementalAggregates& agg) {
      ++calls;
      const IncrementalAggregates expected = naive_step(net, first_dead, g);
      EXPECT_EQ(agg.alive_cables, expected.alive_cables)
          << "round " << round << " step " << g;
      EXPECT_EQ(agg.lit_nodes, expected.lit_nodes)
          << "round " << round << " step " << g;
      EXPECT_EQ(agg.largest, expected.largest)
          << "round " << round << " step " << g;
    });
    EXPECT_EQ(calls, steps);
  }
}

// Hand-checked fold: a two-segment link A (0-1-2) and a link B (2-3) share
// junction 2; C (4-5-6) is a stub, D a one-node stub (a self-loop on 7),
// E has three pieces (9-10, 11-12 and a self-loop on 13), and node 8 has
// no cable.
TEST(IncrementalTest, HandFoldedNetworkAggregates) {
  util::Rng rng(5);
  topo::InfrastructureNetwork net("hand");
  for (int i = 0; i < 14; ++i) add_point(net, rng);
  net.add_cable(make_cable(0, {{0, 1}, {1, 2}}));              // A
  net.add_cable(make_cable(1, {{2, 3}}));                      // B
  net.add_cable(make_cable(2, {{4, 5}, {5, 6}}));              // C
  net.add_cable(make_cable(3, {{7, 7}}));                      // D
  net.add_cable(make_cable(4, {{9, 10}, {11, 12}, {13, 13}}));  // E
  const IncrementalConnectivity inc(net);
  ASSERT_EQ(inc.connected_node_count(), 13u);

  // Step 0: all alive. Step 1: A dead. Step 2: A, C dead. Step 3: only E.
  const std::vector<std::uint32_t> first_dead = {1, 3, 2, 3, 4};
  const std::vector<IncrementalAggregates> walked =
      walk_axis(inc, first_dead, 4);
  const struct {
    std::size_t alive, lit, largest;
  } expected[] = {
      {5, 13, 4},  // {0,1,2,3}
      {4, 11, 3},  // junction 2 stays lit through B; stub C is largest
      {3, 8, 2},   // {2,3} or a piece of E
      {1, 5, 2},   // E alone: pieces of two, two and one, never one of five
  };
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(walked[g].alive_cables, expected[g].alive) << "step " << g;
    EXPECT_EQ(walked[g].lit_nodes, expected[g].lit) << "step " << g;
    EXPECT_EQ(walked[g].largest, expected[g].largest) << "step " << g;
    const IncrementalAggregates naive = naive_step(net, first_dead, g);
    EXPECT_EQ(walked[g].largest, naive.largest) << "step " << g;
  }
}

// No cables: nothing is alive or lit, and every node is its own component.
TEST(IncrementalTest, CablelessNetworkWalk) {
  util::Rng rng(6);
  for (const std::size_t nodes : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}}) {
    topo::InfrastructureNetwork net("empty");
    for (std::size_t i = 0; i < nodes; ++i) add_point(net, rng);
    const IncrementalConnectivity inc(net);
    EXPECT_EQ(inc.connected_node_count(), 0u);
    const std::vector<IncrementalAggregates> walked = walk_axis(inc, {}, 3);
    for (std::size_t g = 0; g < 3; ++g) {
      EXPECT_EQ(walked[g].alive_cables, 0u);
      EXPECT_EQ(walked[g].lit_nodes, 0u);
      EXPECT_EQ(walked[g].largest, nodes > 0 ? 1u : 0u);
    }
  }
}

// --- parity with the frozen node-level walk ----------------------------------

void expect_walk_parity(const IncrementalConnectivity& live,
                        const reference::IncrementalConnectivity& frozen,
                        const std::vector<std::uint32_t>& first_dead,
                        std::size_t steps, const std::string& what) {
  const std::vector<IncrementalAggregates> walked =
      walk_axis(live, first_dead, steps);
  reference::IncrementalScratch s;
  frozen.bucket_by_first_dead(first_dead, steps, s);
  std::size_t calls = 0;
  std::size_t mismatches = 0;
  frozen.walk(steps, s, [&](std::size_t g, const IncrementalAggregates& agg) {
    ++calls;
    if (walked[g].alive_cables != agg.alive_cables ||
        walked[g].lit_nodes != agg.lit_nodes ||
        walked[g].largest != agg.largest) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << what << " step " << g << ": live ("
                      << walked[g].alive_cables << ", "
                      << walked[g].lit_nodes << ", " << walked[g].largest
                      << ") frozen (" << agg.alive_cables << ", "
                      << agg.lit_nodes << ", " << agg.largest << ")";
      }
    }
  });
  EXPECT_EQ(calls, steps) << what;
  EXPECT_EQ(mismatches, 0u) << what;
}

struct ShippedNetwork {
  const char* name;
  const topo::InfrastructureNetwork& net;
};

std::vector<ShippedNetwork> shipped_networks() {
  static const auto submarine = datasets::make_submarine_network({});
  static const auto intertubes = datasets::make_intertubes_network();
  static const auto itu = datasets::make_itu_network();
  return {{"submarine", submarine}, {"intertubes", intertubes},
          {"itu", itu}};
}

TEST(IncrementalParity, RandomAxesOnShippedNetworks) {
  util::Rng rng(22);
  for (const ShippedNetwork& shipped : shipped_networks()) {
    const IncrementalConnectivity live(shipped.net);
    const reference::IncrementalConnectivity frozen(shipped.net);
    EXPECT_EQ(live.connected_node_count(), frozen.connected_node_count());
    const std::size_t cables = shipped.net.cable_count();
    std::vector<std::size_t> widths = {1, 2, 4096};
    for (int i = 0; i < 4; ++i) widths.push_back(1 + rng.uniform_below(4096));
    for (const std::size_t steps : widths) {
      expect_walk_parity(live, frozen, random_axis(rng, cables, steps), steps,
                         std::string(shipped.name) + " random axis of " +
                             std::to_string(steps));
    }
    // Every cable dead from the first step, and every cable alive.
    expect_walk_parity(live, frozen, std::vector<std::uint32_t>(cables, 0), 7,
                       std::string(shipped.name) + " all dead");
    expect_walk_parity(live, frozen, std::vector<std::uint32_t>(cables, 7), 7,
                       std::string(shipped.name) + " all alive");
  }
}

// The first_dead arrays the engines really walk: sweep death indices over
// the paper's grid, and both timeline axes of S1 playbacks.
TEST(IncrementalParity, SweepAndTimelineTrialsOnShippedNetworks) {
  for (const ShippedNetwork& shipped : shipped_networks()) {
    const IncrementalConnectivity live(shipped.net);
    const reference::IncrementalConnectivity frozen(shipped.net);
    const FailureSimulator sim(shipped.net, {});
    const std::string name(shipped.name);

    const SweepEngine sweep = SweepEngine::uniform(
        sim, analysis::default_probability_grid());
    SweepScratch sweep_scratch;
    const util::Rng sweep_base(1859);
    for (std::uint64_t t = 0; t < 6; ++t) {
      util::Rng rng = sweep_base.split(t);
      sweep.run_trial(rng, sweep_scratch);
      expect_walk_parity(live, frozen, sweep_scratch.death_index,
                         sweep.grid_size(),
                         name + " sweep trial " + std::to_string(t));
    }

    const TimelineEngine timeline(
        sim, sim.death_probability_table(gic::LatitudeBandFailureModel::s1()),
        TimelineConfig::from_profile(gic::StormPhaseProfile{}, 1.0));
    TimelineScratch timeline_scratch;
    const util::Rng timeline_base(1921);
    for (std::uint64_t t = 0; t < 4; ++t) {
      util::Rng rng = timeline_base.split(t);
      timeline.playback(rng, timeline_scratch);
      expect_walk_parity(live, frozen, timeline_scratch.fail_step,
                         timeline.storm_step_count(),
                         name + " storm walk " + std::to_string(t));
      expect_walk_parity(live, frozen, timeline_scratch.reversed_first_dead,
                         timeline.repair_step_count(),
                         name + " repair walk " + std::to_string(t));
    }
  }
}

}  // namespace
}  // namespace solarnet::sim
