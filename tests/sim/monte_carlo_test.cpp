#include "sim/monte_carlo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace solarnet::sim {
namespace {

// A small deterministic network:
//   long-high: 1500 km cable topping at 65N  (10 repeaters @150)
//   long-low:  1500 km cable at the equator  (10 repeaters @150)
//   short:      100 km cable                  (0 repeaters)
class SimTest : public ::testing::Test {
 protected:
  SimTest() : net_("sim") {
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

TEST_F(SimTest, RepeaterLayout) {
  const FailureSimulator sim(net_, {});
  EXPECT_EQ(sim.total_repeaters(), 20u);
  EXPECT_EQ(sim.repeaterless_cables(), 1u);
  EXPECT_NEAR(sim.average_repeaters_per_cable(), 20.0 / 3.0, 1e-9);
}

TEST_F(SimTest, SpacingChangesLayout) {
  TrialConfig cfg;
  cfg.repeater_spacing_km = 50.0;
  const FailureSimulator sim(net_, cfg);
  EXPECT_EQ(sim.total_repeaters(), 30u + 30u + 2u);
  EXPECT_EQ(sim.repeaterless_cables(), 0u);
}

TEST_F(SimTest, DeathProbabilityExactForUniform) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.1);
  // 10 repeaters, p=0.1: death = 1 - 0.9^10.
  EXPECT_NEAR(sim.cable_death_probability(high_, m),
              1.0 - std::pow(0.9, 10), 1e-12);
  EXPECT_DOUBLE_EQ(sim.cable_death_probability(short_, m), 0.0);
  EXPECT_THROW(sim.cable_death_probability(99, m), std::out_of_range);
}

TEST_F(SimTest, DeathProbabilityBandModel) {
  const FailureSimulator sim(net_, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  // high cable max lat 65 -> band prob 1.0 per repeater -> certain death.
  EXPECT_DOUBLE_EQ(sim.cable_death_probability(high_, s1), 1.0);
  // low cable max lat 0.5 -> 0.01 per repeater over 10 repeaters.
  EXPECT_NEAR(sim.cable_death_probability(low_, s1),
              1.0 - std::pow(0.99, 10), 1e-12);
}

TEST_F(SimTest, RepeaterlessCablesNeverDie) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel certain(1.0);
  util::Rng rng(1);
  const auto dead = sim.sample_cable_failures(certain, rng);
  EXPECT_TRUE(dead[high_]);
  EXPECT_TRUE(dead[low_]);
  EXPECT_FALSE(dead[short_]);
}

TEST_F(SimTest, ZeroProbabilityKillsNothing) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel never(0.0);
  util::Rng rng(1);
  const auto dead = sim.sample_cable_failures(never, rng);
  for (bool d : dead) EXPECT_FALSE(d);
}

TEST_F(SimTest, TrialCountsNodesPerPaperDefinition) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel certain(1.0);
  util::Rng rng(1);
  util::Bitset dead;
  sim.sample_cable_failures(certain, rng, dead);
  std::vector<topo::NodeId> unreachable;
  net_.unreachable_nodes(dead, unreachable);
  EXPECT_EQ(dead.count(), 2u);
  // A and B lose their only cable; C loses its only cable; D and E keep
  // the short one.
  EXPECT_EQ(unreachable.size(), 3u);
  EXPECT_NEAR(percent_of(dead.count(), net_.cable_count()), 100.0 * 2.0 / 3.0,
              1e-9);
  EXPECT_NEAR(percent_of(unreachable.size(), net_.connected_node_count()),
              100.0 * 3.0 / 5.0, 1e-9);
}

TEST_F(SimTest, TrialFrequencyMatchesDeathProbability) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.05);
  const double expected = sim.cable_death_probability(high_, m);
  util::Rng rng(42);
  int deaths = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    deaths += sim.sample_cable_failures(m, rng)[high_] ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(deaths) / kN, expected, 0.01);
}

TEST_F(SimTest, AggregateReproducibleAcrossRuns) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.3);
  const AggregateResult a = sim.run_trials(m, 10, 7);
  const AggregateResult b = sim.run_trials(m, 10, 7);
  EXPECT_DOUBLE_EQ(a.cables_failed_pct.mean(), b.cables_failed_pct.mean());
  EXPECT_DOUBLE_EQ(a.nodes_unreachable_pct.mean(),
                   b.nodes_unreachable_pct.mean());
  EXPECT_EQ(a.trials, 10u);
}

TEST_F(SimTest, AggregateDiffersAcrossSeeds) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.3);
  const AggregateResult a = sim.run_trials(m, 10, 7);
  const AggregateResult b = sim.run_trials(m, 10, 8);
  EXPECT_NE(a.cables_failed_pct.mean(), b.cables_failed_pct.mean());
}

TEST_F(SimTest, FractionRuleRequiresMoreFailures) {
  TrialConfig any_cfg;
  TrialConfig frac_cfg;
  frac_cfg.rule = CableDeathRule::kFractionFails;
  frac_cfg.death_fraction = 0.5;
  const FailureSimulator any_sim(net_, any_cfg);
  const FailureSimulator frac_sim(net_, frac_cfg);
  const gic::UniformFailureModel m(0.1);
  const AggregateResult any_r = any_sim.run_trials(m, 200, 3);
  const AggregateResult frac_r = frac_sim.run_trials(m, 200, 3);
  // Needing half the repeaters to fail is strictly harder than needing one.
  EXPECT_LT(frac_r.cables_failed_pct.mean(), any_r.cables_failed_pct.mean());
}

TEST_F(SimTest, FractionRuleOneMeansAllRepeaters) {
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  cfg.death_fraction = 1.0;
  const FailureSimulator sim(net_, cfg);
  const gic::UniformFailureModel certain(1.0);
  util::Rng rng(1);
  const auto dead = sim.sample_cable_failures(certain, rng);
  EXPECT_TRUE(dead[high_]);  // all repeaters fail at p=1
}

TEST_F(SimTest, ConfigValidation) {
  TrialConfig bad;
  bad.repeater_spacing_km = 0.0;
  EXPECT_THROW(FailureSimulator(net_, bad), std::invalid_argument);
  bad = TrialConfig{};
  bad.rule = CableDeathRule::kFractionFails;
  bad.death_fraction = 0.0;
  EXPECT_THROW(FailureSimulator(net_, bad), std::invalid_argument);
  bad.death_fraction = 1.5;
  EXPECT_THROW(FailureSimulator(net_, bad), std::invalid_argument);
}

TEST_F(SimTest, ValidationRejectsNonFiniteSpacing) {
  // NaN slips through a naive `spacing <= 0` check (every comparison with
  // NaN is false) and would poison repeater counts downstream.
  TrialConfig bad;
  bad.repeater_spacing_km = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
  bad.repeater_spacing_km = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
  bad.repeater_spacing_km = -150.0;
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
}

TEST_F(SimTest, ValidationRejectsNonFiniteDeathFraction) {
  TrialConfig bad;
  bad.rule = CableDeathRule::kFractionFails;
  bad.death_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
}

TEST_F(SimTest, ValidationRejectsAbsurdThreadCounts) {
  TrialConfig bad;
  bad.threads = kMaxReasonableThreads + 1;
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
  bad.threads = kMaxReasonableThreads;
  EXPECT_NO_THROW(validate_trial_config(bad));
}

TEST_F(SimTest, ValidationMessagesNameTheValue) {
  TrialConfig bad;
  bad.repeater_spacing_km = -1.0;
  try {
    validate_trial_config(bad);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("-1"), std::string::npos);
  }
}

TEST_F(SimTest, ValidationAcceptsDefaults) {
  EXPECT_NO_THROW(validate_trial_config(TrialConfig{}));
}

TEST_F(SimTest, DeathFractionIgnoredUnderAnyRule) {
  // death_fraction is documented as unused by kAnyRepeaterFails, so any
  // value must be accepted there.
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kAnyRepeaterFails;
  cfg.death_fraction = 0.0;
  EXPECT_NO_THROW(FailureSimulator(net_, cfg));
  cfg.death_fraction = 1.5;
  EXPECT_NO_THROW(FailureSimulator(net_, cfg));
}

TEST_F(SimTest, DeathProbabilityTableMatchesPerCableComputation) {
  const FailureSimulator sim(net_, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const gic::UniformFailureModel uniform(0.07);
  for (const gic::RepeaterFailureModel* model :
       {static_cast<const gic::RepeaterFailureModel*>(&s1),
        static_cast<const gic::RepeaterFailureModel*>(&uniform)}) {
    const DeathProbabilityTable table = sim.death_probability_table(*model);
    ASSERT_EQ(table.probability.size(), net_.cable_count());
    for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
      EXPECT_DOUBLE_EQ(table.probability[c],
                       sim.cable_death_probability(c, *model));
    }
  }
}

TEST_F(SimTest, InPlaceSamplingMatchesAllocatingOverload) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.3);
  util::Rng a(11);
  util::Rng b(11);
  util::Bitset reused(99, true);  // wrong size + stale contents on entry
  for (int i = 0; i < 5; ++i) {
    sim.sample_cable_failures(m, a, reused);
    EXPECT_EQ(reused.to_bools(), sim.sample_cable_failures(m, b));
  }
}

TEST_F(SimTest, AggregateBitIdenticalAcrossThreadCounts) {
  // 100 trials spans several accumulation chunks, so this exercises the
  // chunked merge reduction, not just the single-chunk copy path.
  const gic::UniformFailureModel m(0.3);
  AggregateResult serial;
  for (std::size_t threads : {1u, 2u, 8u}) {
    TrialConfig cfg;
    cfg.threads = threads;
    const FailureSimulator sim(net_, cfg);
    const AggregateResult agg = sim.run_trials(m, 100, 7);
    if (threads == 1u) {
      serial = agg;
      continue;
    }
    EXPECT_EQ(agg.trials, serial.trials);
    EXPECT_EQ(agg.cables_failed_pct.mean(), serial.cables_failed_pct.mean());
    EXPECT_EQ(agg.cables_failed_pct.stddev(),
              serial.cables_failed_pct.stddev());
    EXPECT_EQ(agg.cables_failed_pct.sample_stddev(),
              serial.cables_failed_pct.sample_stddev());
    EXPECT_EQ(agg.cables_failed_pct.min(), serial.cables_failed_pct.min());
    EXPECT_EQ(agg.cables_failed_pct.max(), serial.cables_failed_pct.max());
    EXPECT_EQ(agg.nodes_unreachable_pct.mean(),
              serial.nodes_unreachable_pct.mean());
    EXPECT_EQ(agg.nodes_unreachable_pct.stddev(),
              serial.nodes_unreachable_pct.stddev());
  }
}

TEST_F(SimTest, AggregateBitIdenticalAcrossThreadCountsFractionRule) {
  // The kFractionFails path has no probability table; the parallel loop
  // must still be thread-count independent.
  const gic::UniformFailureModel m(0.4);
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  cfg.death_fraction = 0.3;
  cfg.threads = 1;
  const FailureSimulator serial_sim(net_, cfg);
  const AggregateResult serial = serial_sim.run_trials(m, 100, 13);
  cfg.threads = 4;
  const FailureSimulator parallel_sim(net_, cfg);
  const AggregateResult parallel = parallel_sim.run_trials(m, 100, 13);
  EXPECT_EQ(parallel.cables_failed_pct.mean(),
            serial.cables_failed_pct.mean());
  EXPECT_EQ(parallel.cables_failed_pct.sample_stddev(),
            serial.cables_failed_pct.sample_stddev());
  EXPECT_EQ(parallel.nodes_unreachable_pct.mean(),
            serial.nodes_unreachable_pct.mean());
}

TEST_F(SimTest, RunTrialsMatchesIndependentTrialStreams) {
  // The aggregate must be built from exactly trial-t-uses-stream-t draws,
  // regardless of chunking: recompute the trials by hand and compare.
  TrialConfig cfg;
  cfg.threads = 2;
  const FailureSimulator sim(net_, cfg);
  const gic::UniformFailureModel m(0.3);
  constexpr std::size_t kTrials = 100;
  const AggregateResult agg = sim.run_trials(m, kTrials, 21);
  const util::Rng base(21);
  double min_pct = 1e300;
  double max_pct = -1e300;
  double sum = 0.0;
  double nodes_sum = 0.0;
  util::Bitset dead;
  std::vector<topo::NodeId> unreachable;
  for (std::size_t t = 0; t < kTrials; ++t) {
    util::Rng rng = base.split(t);
    sim.sample_cable_failures(m, rng, dead);
    net_.unreachable_nodes(dead, unreachable);
    const double pct = percent_of(dead.count(), net_.cable_count());
    min_pct = std::min(min_pct, pct);
    max_pct = std::max(max_pct, pct);
    sum += pct;
    nodes_sum += percent_of(unreachable.size(), net_.connected_node_count());
  }
  EXPECT_EQ(agg.cables_failed_pct.min(), min_pct);
  EXPECT_EQ(agg.cables_failed_pct.max(), max_pct);
  EXPECT_NEAR(agg.cables_failed_pct.mean(), sum / kTrials, 1e-9);
  EXPECT_NEAR(agg.nodes_unreachable_pct.mean(), nodes_sum / kTrials, 1e-9);
}

TEST_F(SimTest, EmptyNetworkSafe) {
  const topo::InfrastructureNetwork empty("empty");
  const FailureSimulator sim(empty, {});
  const gic::UniformFailureModel m(0.5);
  const AggregateResult r = sim.run_trials(m, 5, 1);
  EXPECT_DOUBLE_EQ(r.cables_failed_pct.mean(), 0.0);
}

}  // namespace
}  // namespace solarnet::sim
