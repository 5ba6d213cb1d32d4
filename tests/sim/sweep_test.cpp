#include "sim/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/connectivity.h"
#include "util/rng.h"

namespace solarnet::sim {
namespace {

// Same deterministic network as monte_carlo_test:
//   long-high: 1500 km cable topping at 65N  (10 repeaters @150)
//   long-low:  1500 km cable at the equator  (10 repeaters @150)
//   short:      100 km cable                  (0 repeaters)
class SweepTest : public ::testing::Test {
 protected:
  SweepTest() : net_("sweep") {
    const auto a = net_.add_node(
        {"A", {65.0, 0.0}, "NO", topo::NodeKind::kLandingPoint, true});
    const auto b = net_.add_node(
        {"B", {55.0, 0.0}, "NO", topo::NodeKind::kLandingPoint, true});
    const auto c = net_.add_node(
        {"C", {0.0, 0.0}, "", topo::NodeKind::kLandingPoint, true});
    const auto d = net_.add_node(
        {"D", {0.0, 13.0}, "", topo::NodeKind::kLandingPoint, true});
    const auto e = net_.add_node(
        {"E", {0.5, 13.0}, "", topo::NodeKind::kLandingPoint, true});
    topo::Cable high;
    high.name = "long-high";
    high.segments = {{a, b, 1500.0}};
    high_ = net_.add_cable(std::move(high));
    topo::Cable low;
    low.name = "long-low";
    low.segments = {{c, d, 1500.0}};
    low_ = net_.add_cable(std::move(low));
    topo::Cable shorty;
    shorty.name = "short";
    shorty.segments = {{d, e, 100.0}};
    short_ = net_.add_cable(std::move(shorty));
  }

  topo::InfrastructureNetwork net_;
  topo::CableId high_{}, low_{}, short_{};
};

// A random multi-cable network for property tests: `nodes` random points,
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

TEST_F(SweepTest, RejectsFractionFailsRule) {
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  const FailureSimulator sim(net_, cfg);
  const std::vector<double> probs = {0.1, 0.5};
  EXPECT_THROW(SweepEngine::uniform(sim, probs), std::invalid_argument);
  EXPECT_THROW(analysis::uniform_failure_sweep(sim, probs, 4, 1),
               std::invalid_argument);
}

TEST_F(SweepTest, RejectsBadGrids) {
  const FailureSimulator sim(net_, {});
  EXPECT_THROW(SweepEngine(sim, {}), std::invalid_argument);  // empty

  const std::vector<double> unsorted = {0.5, 0.1};
  EXPECT_THROW(SweepEngine::uniform(sim, unsorted), std::invalid_argument);

  std::vector<DeathProbabilityTable> short_table(1);
  short_table[0].probability = {0.1};  // 3 cables expected
  EXPECT_THROW(SweepEngine(sim, std::move(short_table)),
               std::invalid_argument);

  std::vector<DeathProbabilityTable> nonmono(2);
  nonmono[0].probability = {0.5, 0.5, 0.0};
  nonmono[1].probability = {0.6, 0.4, 0.0};  // cable 1 decreases
  EXPECT_THROW(SweepEngine(sim, std::move(nonmono)), std::invalid_argument);

  std::vector<DeathProbabilityTable> out_of_range(1);
  out_of_range[0].probability = {0.1, 1.5, 0.0};
  EXPECT_THROW(SweepEngine(sim, std::move(out_of_range)),
               std::invalid_argument);

  std::vector<DeathProbabilityTable> ok(1);
  ok[0].probability = {0.1, 0.2, 0.0};
  EXPECT_THROW(SweepEngine(sim, std::move(ok), {1.0, 2.0}),
               std::invalid_argument);  // axis size mismatch
}

TEST_F(SweepTest, UniformRejectsNonFiniteGridPoints) {
  // NaN compares false to everything, so it sails through both
  // std::is_sorted (no descending pair ever reported) and the
  // !(p >= 0 && p <= 1) range check unless finiteness is gated explicitly.
  const FailureSimulator sim(net_, {});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    std::vector<double> grid;
    const char* needle;  // expected fragment of the error message
  } cases[] = {
      {{nan}, "index 0"},
      {{0.1, nan}, "index 1"},
      {{nan, 0.1, 0.5}, "index 0"},
      {{0.1, nan, 0.5}, "index 1"},
      {{0.0, 0.5, inf}, "index 2"},
      {{-inf, 0.5}, "index 0"},
  };
  for (const auto& c : cases) {
    try {
      SweepEngine::uniform(sim, c.grid);
      FAIL() << "grid of size " << c.grid.size()
             << " with non-finite point was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << e.what();
    }
  }
  // A clean grid still passes.
  EXPECT_NO_THROW(SweepEngine::uniform(sim, std::vector<double>{0.0, 0.5, 1.0}));
}

// run_trial's CRN draw must consume exactly one uniform per
// repeater-bearing cable in ascending cable order and threshold it against
// the grid — so an independent replay of the same child stream predicts
// every death index the trial wrote.
TEST_F(SweepTest, DeathIndicesMatchManualThresholding) {
  const FailureSimulator sim(net_, {});
  const auto grid = analysis::default_probability_grid();
  const SweepEngine engine = SweepEngine::uniform(sim, grid);
  SweepScratch scratch;
  for (std::uint64_t trial = 0; trial < 16; ++trial) {
    util::Rng rng = util::Rng(99).split(trial);
    engine.run_trial(rng, scratch);
    const std::vector<std::uint32_t>& got = scratch.death_index;

    util::Rng replay = util::Rng(99).split(trial);
    ASSERT_EQ(got.size(), net_.cable_count());
    for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
      if (sim.cable_repeater_count(c) == 0) {
        EXPECT_EQ(got[c], engine.grid_size());
        continue;
      }
      const double u = replay.uniform();
      std::uint32_t expect = static_cast<std::uint32_t>(engine.grid_size());
      for (std::size_t g = 0; g < engine.grid_size(); ++g) {
        if (u < engine.grid_probability(g, c)) {  // Bernoulli death rule
          expect = static_cast<std::uint32_t>(g);
          break;
        }
      }
      EXPECT_EQ(got[c], expect) << "cable " << c << " trial " << trial;
    }
  }
}

// Monotone-nesting property over random networks: within one trial the
// dead set can only grow with severity, so cable/node failure percentages
// are non-decreasing across the grid and the largest surviving component
// is non-increasing.
TEST(SweepProperty, MonotoneNestedCurvesOnRandomNetworks) {
  util::Rng meta(2026);
  const std::vector<double> grid = {0.001, 0.01, 0.05, 0.1, 0.3, 0.7, 1.0};
  for (int round = 0; round < 8; ++round) {
    const auto net = random_network(meta, 6 + round, 10 + 2 * round);
    const FailureSimulator sim(net, {});
    const SweepEngine engine = SweepEngine::uniform(sim, grid);
    SweepScratch scratch;
    for (std::uint64_t trial = 0; trial < 24; ++trial) {
      util::Rng rng = util::Rng(round).split(trial);
      engine.run_trial(rng, scratch);
      for (std::size_t g = 1; g < grid.size(); ++g) {
        EXPECT_GE(scratch.cables_pct[g], scratch.cables_pct[g - 1]);
        EXPECT_GE(scratch.nodes_pct[g], scratch.nodes_pct[g - 1]);
        EXPECT_LE(scratch.largest_pct[g], scratch.largest_pct[g - 1]);
      }
    }
  }
}

// Cross-check the batched path against the independent run_trials path at
// three grid points. The two draw from different streams, so the
// comparison is statistical: means within 4 combined standard errors.
TEST(SweepProperty, MatchesIndependentRunTrialsStatistically) {
  util::Rng meta(7);
  const auto net = random_network(meta, 12, 30);
  const FailureSimulator sim(net, {});
  const std::vector<double> grid = {0.02, 0.1, 0.5};
  const SweepEngine engine = SweepEngine::uniform(sim, grid);
  constexpr std::size_t kTrials = 600;
  const SweepResult batched = engine.run(kTrials, 11);
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const gic::UniformFailureModel model(grid[g]);
    const AggregateResult indep = sim.run_trials(model, kTrials, 1000 + g);
    const std::vector<
        std::pair<const util::RunningStats*, const util::RunningStats*>>
        checks = {{&batched.points[g].cables_failed_pct,
                   &indep.cables_failed_pct},
                  {&batched.points[g].nodes_unreachable_pct,
                   &indep.nodes_unreachable_pct}};
    for (const auto& pair : checks) {
      const util::RunningStats& a = *pair.first;
      const util::RunningStats& b = *pair.second;
      const double se =
          std::sqrt((a.sample_variance() + b.sample_variance()) /
                    static_cast<double>(kTrials));
      EXPECT_NEAR(a.mean(), b.mean(), 4.0 * se + 1e-9)
          << "grid point " << grid[g];
    }
  }
}

// p = 0 and p = 1 are deterministic, so batched and independent paths must
// agree exactly there.
TEST_F(SweepTest, DeterministicEndpointsExact) {
  const FailureSimulator sim(net_, {});
  const std::vector<double> grid = {0.0, 1.0};
  const SweepEngine engine = SweepEngine::uniform(sim, grid);
  const SweepResult result = engine.run(32, 5);

  EXPECT_DOUBLE_EQ(result.points[0].cables_failed_pct.mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.points[0].nodes_unreachable_pct.mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.points[0].cables_failed_pct.sample_stddev(), 0.0);

  // p = 1: both long cables die, the repeaterless short one survives.
  EXPECT_DOUBLE_EQ(result.points[1].cables_failed_pct.mean(),
                   100.0 * 2.0 / 3.0);
  // A, B, C lose all cables; D and E keep the short cable.
  EXPECT_DOUBLE_EQ(result.points[1].nodes_unreachable_pct.mean(),
                   100.0 * 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(result.points[1].nodes_unreachable_pct.sample_stddev(),
                   0.0);
  // Largest surviving component is D-E: 2 of 5 connected nodes.
  EXPECT_DOUBLE_EQ(result.points[1].largest_component_pct.mean(), 40.0);
  // p = 0: everything alive, one component of all 5 nodes.
  EXPECT_DOUBLE_EQ(result.points[0].largest_component_pct.min(), 60.0);
}

// The determinism contract: aggregates are bit-identical for every thread
// count, including auto (0).
TEST(SweepProperty, ThreadCountBitIdentity) {
  util::Rng meta(3);
  const auto net = random_network(meta, 14, 40);
  const FailureSimulator sim(net, {});
  const auto grid = analysis::default_probability_grid();
  const SweepEngine engine = SweepEngine::uniform(sim, grid);
  constexpr std::size_t kTrials = 150;  // not a multiple of the chunk size
  const SweepResult serial = engine.run(kTrials, 42, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{7}, std::size_t{0}}) {
    const SweepResult parallel = engine.run(kTrials, 42, threads);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    for (std::size_t g = 0; g < serial.points.size(); ++g) {
      const auto& s = serial.points[g];
      const auto& p = parallel.points[g];
      const std::vector<
          std::pair<const util::RunningStats*, const util::RunningStats*>>
          checks = {{&s.cables_failed_pct, &p.cables_failed_pct},
                    {&s.nodes_unreachable_pct, &p.nodes_unreachable_pct},
                    {&s.largest_component_pct, &p.largest_component_pct}};
      for (const auto& pair : checks) {
        EXPECT_EQ(pair.first->count(), pair.second->count());
        EXPECT_EQ(pair.first->mean(), pair.second->mean());
        EXPECT_EQ(pair.first->sample_stddev(), pair.second->sample_stddev());
        EXPECT_EQ(pair.first->min(), pair.second->min());
        EXPECT_EQ(pair.first->max(), pair.second->max());
      }
    }
  }
}

// uniform_failure_sweep accepts probabilities in any order and returns the
// points in input order, identical to the sorted call mapped back.
TEST(SweepProperty, UnsortedSweepInputKeepsOrder) {
  util::Rng meta(5);
  const auto net = random_network(meta, 8, 16);
  const FailureSimulator sim(net, {});
  const std::vector<double> sorted = {0.01, 0.1, 0.5, 1.0};
  const std::vector<double> shuffled = {0.5, 0.01, 1.0, 0.1};
  const auto a = analysis::uniform_failure_sweep(sim, sorted, 40, 9);
  const auto b = analysis::uniform_failure_sweep(sim, shuffled, 40, 9);
  ASSERT_EQ(a.size(), sorted.size());
  ASSERT_EQ(b.size(), shuffled.size());
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    const auto it = std::find(sorted.begin(), sorted.end(), shuffled[i]);
    ASSERT_NE(it, sorted.end());
    const auto& expect = a[static_cast<std::size_t>(it - sorted.begin())];
    EXPECT_EQ(b[i].axis, shuffled[i]);
    EXPECT_EQ(b[i].cables_failed_pct.mean(), expect.cables_failed_pct.mean());
    EXPECT_EQ(b[i].nodes_unreachable_pct.mean(),
              expect.nodes_unreachable_pct.mean());
    EXPECT_EQ(b[i].cables_failed_pct.sample_stddev(),
              expect.cables_failed_pct.sample_stddev());
  }
}

// Reusing one scratch across trials and engines must not leak state: a
// fresh scratch and a heavily reused one produce identical trials.
TEST(SweepProperty, ScratchReuseIsStateless) {
  util::Rng meta(13);
  const auto net_small = random_network(meta, 5, 8);
  const auto net_big = random_network(meta, 20, 60);
  const FailureSimulator sim_small(net_small, {});
  const FailureSimulator sim_big(net_big, {});
  const std::vector<double> grid = {0.05, 0.2, 0.8};
  const SweepEngine small = SweepEngine::uniform(sim_small, grid);
  const SweepEngine big = SweepEngine::uniform(sim_big, grid);

  SweepScratch reused;
  for (int warm = 0; warm < 3; ++warm) {
    util::Rng rng(1000 + warm);
    big.run_trial(rng, reused);  // dirty the buffers with a bigger problem
  }
  util::Rng rng_a(77), rng_b(77);
  SweepScratch fresh;
  small.run_trial(rng_a, fresh);
  small.run_trial(rng_b, reused);
  EXPECT_EQ(fresh.cables_pct, reused.cables_pct);
  EXPECT_EQ(fresh.nodes_pct, reused.nodes_pct);
  EXPECT_EQ(fresh.largest_pct, reused.largest_pct);
}

TEST_F(SweepTest, AxisDefaultsAndAccessors) {
  const FailureSimulator sim(net_, {});
  std::vector<DeathProbabilityTable> grid(2);
  grid[0].probability = {0.1, 0.1, 0.0};
  grid[1].probability = {0.4, 0.2, 0.0};
  const SweepEngine engine(sim, std::move(grid));
  EXPECT_EQ(engine.grid_size(), 2u);
  EXPECT_DOUBLE_EQ(engine.axis(0), 0.0);  // defaults to the grid index
  EXPECT_DOUBLE_EQ(engine.axis(1), 1.0);
  EXPECT_DOUBLE_EQ(engine.grid_probability(1, 0), 0.4);
  EXPECT_THROW(engine.grid_probability(2, 0), std::out_of_range);
  EXPECT_THROW(engine.grid_probability(0, 99), std::out_of_range);
}

}  // namespace
}  // namespace solarnet::sim
