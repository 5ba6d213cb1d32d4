// Property-based sweeps (TEST_P) over the simulation engine and the graph
// substrate: invariants that must hold for every (spacing, model,
// probability, seed) combination, and randomized cross-checks between
// independent implementations (union-find components vs the frozen DFS
// reachability, Dijkstra vs the frozen BFS on unit weights, both in
// bench/reference/graph_kernels.h; analytic death probability vs sampled
// frequency).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/country.h"
#include "topology/repeater.h"
#include "datasets/submarine.h"
#include "graph/components.h"
#include "graph/shortest_paths.h"
#include "reference/graph_kernels.h"
#include "sim/monte_carlo.h"
#include "util/rng.h"

namespace solarnet {
namespace {

// ---------------------------------------------------------------------------
// Engine invariants across (spacing x probability).
// ---------------------------------------------------------------------------
struct SweepCase {
  double spacing_km;
  double probability;
};

class EngineInvariantTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static const topo::InfrastructureNetwork& net() {
    static const auto n = [] {
      datasets::SubmarineConfig cfg;
      cfg.total_cables = 150;
      cfg.target_landing_points = 380;
      cfg.cables_without_length = 5;
      return datasets::make_submarine_network(cfg);
    }();
    return n;
  }
};

TEST_P(EngineInvariantTest, TrialOutputsAreConsistent) {
  const auto [spacing, p] = GetParam();
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = spacing;
  const sim::FailureSimulator simulator(net(), cfg);
  const gic::UniformFailureModel model(p);
  util::Rng rng(static_cast<std::uint64_t>(spacing * 1000 + p * 1e6));
  util::Bitset dead;
  simulator.sample_cable_failures(model, rng, dead);
  std::vector<topo::NodeId> unreachable;
  net().unreachable_nodes(dead, unreachable);

  // Percentages in range.
  const double cables_pct = sim::percent_of(dead.count(), net().cable_count());
  const double nodes_pct =
      sim::percent_of(unreachable.size(), net().connected_node_count());
  EXPECT_GE(cables_pct, 0.0);
  EXPECT_LE(cables_pct, 100.0);
  EXPECT_GE(nodes_pct, 0.0);
  EXPECT_LE(nodes_pct, 100.0);
  // Every unreachable node had cables and lost all of them.
  for (const topo::NodeId n : unreachable) {
    ASSERT_FALSE(net().cables_at(n).empty());
    for (const topo::CableId c : net().cables_at(n)) EXPECT_TRUE(dead[c]);
  }
  // Repeaterless cables never die.
  for (topo::CableId c = 0; c < net().cable_count(); ++c) {
    if (topo::cable_repeater_count(net().cable(c), spacing) == 0) {
      EXPECT_FALSE(dead[c]);
    }
  }
}

TEST_P(EngineInvariantTest, DeathProbabilityBounds) {
  const auto [spacing, p] = GetParam();
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = spacing;
  const sim::FailureSimulator simulator(net(), cfg);
  const gic::UniformFailureModel model(p);
  for (topo::CableId c = 0; c < net().cable_count(); ++c) {
    const double death = simulator.cable_death_probability(c, model);
    EXPECT_GE(death, 0.0);
    EXPECT_LE(death, 1.0);
    const std::size_t reps =
        topo::cable_repeater_count(net().cable(c), spacing);
    if (reps == 0) {
      EXPECT_DOUBLE_EQ(death, 0.0);
    } else {
      // Union bound from above, single-repeater bound from below.
      EXPECT_LE(death, std::min(1.0, static_cast<double>(reps) * p) + 1e-12);
      if (p > 0.0) {
        EXPECT_GE(death, p - 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpacingXProbability, EngineInvariantTest,
    ::testing::Values(SweepCase{50.0, 0.001}, SweepCase{50.0, 0.05},
                      SweepCase{50.0, 0.5}, SweepCase{100.0, 0.01},
                      SweepCase{100.0, 0.2}, SweepCase{150.0, 0.001},
                      SweepCase{150.0, 0.05}, SweepCase{150.0, 1.0}));

// ---------------------------------------------------------------------------
// Monotonicity in probability for fixed seeds (coupling argument: higher p
// can only raise the per-cable death probability, so mean failure rates
// over many trials must be non-decreasing within noise).
// ---------------------------------------------------------------------------
class MonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(MonotonicityTest, MeanFailuresIncreaseWithProbability) {
  const double spacing = GetParam();
  datasets::SubmarineConfig cfg;
  cfg.total_cables = 120;
  cfg.target_landing_points = 300;
  cfg.cables_without_length = 0;
  const auto net = datasets::make_submarine_network(cfg);
  sim::TrialConfig trial_cfg;
  trial_cfg.repeater_spacing_km = spacing;
  const sim::FailureSimulator simulator(net, trial_cfg);
  double prev = -1.0;
  for (double p : {0.001, 0.01, 0.1, 1.0}) {
    const gic::UniformFailureModel model(p);
    const auto agg = simulator.run_trials(model, 40, 9);
    EXPECT_GE(agg.cables_failed_pct.mean(), prev - 1.5) << "p=" << p;
    prev = agg.cables_failed_pct.mean();
  }
}

INSTANTIATE_TEST_SUITE_P(Spacings, MonotonicityTest,
                         ::testing::Values(50.0, 100.0, 150.0));

// ---------------------------------------------------------------------------
// Analytic death probability matches sampled frequency (the product
// shortcut vs the Bernoulli draw) for a band model.
// ---------------------------------------------------------------------------
TEST(AnalyticVsSampled, BandModelFrequencies) {
  datasets::SubmarineConfig cfg;
  cfg.total_cables = 60;
  cfg.target_landing_points = 150;
  cfg.cables_without_length = 0;
  const auto net = datasets::make_submarine_network(cfg);
  const sim::FailureSimulator simulator(net, {});
  const auto s2 = gic::LatitudeBandFailureModel::s2();

  util::Rng rng(12345);
  constexpr int kTrials = 4000;
  std::vector<int> deaths(net.cable_count(), 0);
  for (int t = 0; t < kTrials; ++t) {
    const auto dead = simulator.sample_cable_failures(s2, rng);
    for (topo::CableId c = 0; c < net.cable_count(); ++c) {
      deaths[c] += dead[c] ? 1 : 0;
    }
  }
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const double analytic = simulator.cable_death_probability(c, s2);
    const double sampled =
        static_cast<double>(deaths[c]) / static_cast<double>(kTrials);
    // 4000 trials: ~4-sigma tolerance.
    const double sigma = std::sqrt(analytic * (1.0 - analytic) / kTrials);
    EXPECT_NEAR(sampled, analytic, 4.0 * sigma + 0.005)
        << net.cable(c).name;
  }
}

// ---------------------------------------------------------------------------
// Randomized graph cross-checks.
// ---------------------------------------------------------------------------
graph::Graph random_graph(util::Rng& rng, std::size_t vertices,
                          std::size_t edges) {
  graph::Graph g(vertices);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<graph::VertexId>(rng.uniform_below(vertices));
    const auto v = static_cast<graph::VertexId>(rng.uniform_below(vertices));
    g.add_edge(u, v, 1.0);
  }
  return g;
}

graph::ComponentResult components_of(const graph::Graph& g,
                                     const graph::AliveMask& mask) {
  graph::ComponentScratch scratch;
  graph::ComponentResult out;
  graph::connected_components(graph::Csr(g), mask, scratch, out);
  return out;
}

class RandomGraphTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphTest, ComponentsAgreeWithReachability) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto g = random_graph(rng, 60, 70);
  const auto mask = graph::AliveMask::all_alive(g);
  const auto cc = components_of(g, mask);
  for (graph::VertexId src : {0u, 7u, 31u}) {
    const std::vector<bool> reach = reference::reachable_from(g, mask, src);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      EXPECT_EQ(reach[v], cc.same_component(src, v))
          << "src=" << src << " v=" << v;
    }
  }
}

TEST_P(RandomGraphTest, DijkstraMatchesBfsOnUnitWeights) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const auto g = random_graph(rng, 50, 90);
  const auto mask = graph::AliveMask::all_alive(g);
  const auto sp = graph::dijkstra(g, mask, 0);
  const std::vector<std::uint32_t> hops = reference::bfs_hops(g, mask, 0);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (hops[v] == reference::kUnreachableHops) {
      EXPECT_EQ(sp.distance[v], graph::kUnreachable);
    } else {
      EXPECT_DOUBLE_EQ(sp.distance[v], static_cast<double>(hops[v]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21, 34, 55));

// ---------------------------------------------------------------------------
// Corridor probability consistency: the analytic all-fail probability of a
// corridor equals the sampled frequency of "every corridor cable dead".
// ---------------------------------------------------------------------------
TEST(AnalyticVsSampled, CorridorAllFailFrequency) {
  datasets::SubmarineConfig cfg;
  cfg.total_cables = 120;
  cfg.target_landing_points = 300;
  cfg.cables_without_length = 0;
  const auto net = datasets::make_submarine_network(cfg);
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto corridor = analysis::corridor_cables(
      net, {"US", "CA"}, {"GB", "IE", "FR", "NL", "DE", "DK", "NO"});
  ASSERT_GE(corridor.size(), 2u);
  const double analytic =
      analysis::all_fail_probability(simulator, s1, corridor);

  util::Rng rng(777);
  constexpr int kTrials = 3000;
  int all_dead = 0;
  for (int t = 0; t < kTrials; ++t) {
    const auto dead = simulator.sample_cable_failures(s1, rng);
    bool all = true;
    for (topo::CableId c : corridor) {
      if (!dead[c]) {
        all = false;
        break;
      }
    }
    all_dead += all ? 1 : 0;
  }
  const double sampled =
      static_cast<double>(all_dead) / static_cast<double>(kTrials);
  const double sigma = std::sqrt(analytic * (1.0 - analytic) / kTrials);
  EXPECT_NEAR(sampled, analytic, 4.0 * sigma + 0.01);
}

// ---------------------------------------------------------------------------
// Generator calibration is seed-robust: key statistics hold across seeds.
// ---------------------------------------------------------------------------
class SeedRobustnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedRobustnessTest, SubmarineCalibrationHolds) {
  datasets::SubmarineConfig cfg;
  cfg.seed = GetParam();
  const auto net = datasets::make_submarine_network(cfg);
  EXPECT_EQ(net.cable_count(), 470u);
  auto lengths = net.cable_lengths();
  std::sort(lengths.begin(), lengths.end());
  EXPECT_NEAR(util::quantile(lengths, 0.5), 775.0, 400.0);
  EXPECT_NEAR(lengths.back(), 39000.0, 500.0);
  std::size_t above = 0;
  const auto lats = net.node_latitudes();
  for (double lat : lats) {
    if (std::abs(lat) > 40.0) ++above;
  }
  const double frac =
      static_cast<double>(above) / static_cast<double>(lats.size());
  EXPECT_GT(frac, 0.22);
  EXPECT_LT(frac, 0.40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustnessTest,
                         ::testing::Values(1859u, 7u, 42u, 1921u, 2024u));

}  // namespace
}  // namespace solarnet
