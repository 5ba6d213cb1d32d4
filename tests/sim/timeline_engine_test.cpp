#include "sim/timeline_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/components.h"
#include "reference/graph_kernels.h"
#include "topology/network.h"
#include "util/rng.h"

namespace solarnet::sim {
namespace {

// Same random-network generator as sweep_test / incremental_test.
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

DeathProbabilityTable uniform_table(const topo::InfrastructureNetwork& net,
                                    double p) {
  DeathProbabilityTable table;
  table.probability.assign(net.cable_count(), p);
  return table;
}

TimelineConfig small_config() {
  TimelineConfig config = TimelineConfig::from_profile({}, 12.0);
  config.repair_steps = 6;
  config.repair_step_hours = 10.0 * 24.0;
  return config;
}

class TimelineEngineTest : public ::testing::Test {
 protected:
  TimelineEngineTest() : rng_(404), net_(random_network(rng_, 12, 24)) {}

  util::Rng rng_;
  topo::InfrastructureNetwork net_;
};

TEST_F(TimelineEngineTest, FromProfileBuildsNormalizedAxis) {
  const gic::StormPhaseProfile profile;  // 72 h total
  const TimelineConfig config = TimelineConfig::from_profile(profile, 6.0);
  ASSERT_GE(config.storm_hours.size(), 2u);
  ASSERT_EQ(config.storm_hours.size(), config.dose_share.size());
  EXPECT_EQ(config.storm_hours.front(), 0.0);
  EXPECT_EQ(config.dose_share.front(), 0.0);
  // Strictly increasing hours, non-decreasing share.
  for (std::size_t g = 1; g < config.storm_hours.size(); ++g) {
    EXPECT_GT(config.storm_hours[g], config.storm_hours[g - 1]);
    EXPECT_GE(config.dose_share[g], config.dose_share[g - 1]);
  }
  // The last step lands exactly on total_hours with share exactly 1.0 —
  // the normalization the engine's validation requires.
  EXPECT_EQ(config.storm_hours.back(), profile.total_hours);
  EXPECT_EQ(config.dose_share.back(), 1.0);
}

TEST_F(TimelineEngineTest, FromProfileRejectsBadArguments) {
  EXPECT_THROW(TimelineConfig::from_profile({}, 0.0), std::invalid_argument);
  EXPECT_THROW(TimelineConfig::from_profile({}, -1.0), std::invalid_argument);
  gic::StormPhaseProfile degenerate;
  degenerate.total_hours = 0.0;
  EXPECT_THROW(TimelineConfig::from_profile(degenerate, 1.0),
               std::invalid_argument);
}

TEST_F(TimelineEngineTest, ConstructorRejectsBadInputs) {
  const FailureSimulator sim(net_, {});

  // Wrong cable-death rule: the CRN hazard threshold models
  // any-repeater-fails only.
  TrialConfig fraction;
  fraction.rule = CableDeathRule::kFractionFails;
  const FailureSimulator bad_rule(net_, fraction);
  EXPECT_THROW(
      TimelineEngine(bad_rule, uniform_table(net_, 0.1), small_config()),
      std::invalid_argument);

  // Table size mismatch.
  DeathProbabilityTable short_table;
  short_table.probability = {0.1};
  EXPECT_THROW(TimelineEngine(sim, short_table, small_config()),
               std::invalid_argument);

  // Probability outside [0, 1] (NaN included — !(p >= 0 && p <= 1)).
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 1.5), small_config()),
               std::invalid_argument);
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, -0.1), small_config()),
               std::invalid_argument);
  EXPECT_THROW(
      TimelineEngine(sim,
                     uniform_table(net_, std::numeric_limits<double>::quiet_NaN()),
                     small_config()),
      std::invalid_argument);

  // Empty storm axis.
  TimelineConfig empty;
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 0.1), empty),
               std::invalid_argument);

  // Non-increasing hours.
  TimelineConfig flat = TimelineConfig::from_dose_schedule({0.0, 1.0, 1.0},
                                                           {0.0, 0.5, 1.0});
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 0.1), flat),
               std::invalid_argument);

  // dose_share size mismatch.
  TimelineConfig lopsided =
      TimelineConfig::from_dose_schedule({0.0, 1.0, 2.0}, {0.0, 1.0});
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 0.1), lopsided),
               std::invalid_argument);

  // Decreasing share.
  TimelineConfig decreasing = TimelineConfig::from_dose_schedule(
      {0.0, 1.0, 2.0}, {0.0, 0.7, 1.0});
  decreasing.dose_share[1] = 0.7;
  decreasing.dose_share[2] = 0.6;
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 0.1), decreasing),
               std::invalid_argument);

  // Share not ending at exactly 1.0.
  TimelineConfig unnormalized = TimelineConfig::from_dose_schedule(
      {0.0, 1.0, 2.0}, {0.0, 0.5, 0.999999});
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 0.1), unnormalized),
               std::invalid_argument);

  // Share outside [0, 1].
  TimelineConfig overdose = TimelineConfig::from_dose_schedule(
      {0.0, 1.0, 2.0}, {0.0, 1.5, 1.0});
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 0.1), overdose),
               std::invalid_argument);

  // Repair axis: zero steps, non-positive / non-finite step width.
  TimelineConfig no_repairs = small_config();
  no_repairs.repair_steps = 0;
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 0.1), no_repairs),
               std::invalid_argument);
  TimelineConfig bad_width = small_config();
  bad_width.repair_step_hours = 0.0;
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 0.1), bad_width),
               std::invalid_argument);
  bad_width.repair_step_hours = std::numeric_limits<double>::infinity();
  EXPECT_THROW(TimelineEngine(sim, uniform_table(net_, 0.1), bad_width),
               std::invalid_argument);
}

TEST_F(TimelineEngineTest, UnifiedStepAxisAppendsRepairGrid) {
  const FailureSimulator sim(net_, {});
  const TimelineConfig config = small_config();
  const TimelineEngine engine(sim, uniform_table(net_, 0.3), config);
  EXPECT_EQ(engine.storm_step_count(), config.storm_hours.size());
  EXPECT_EQ(engine.repair_step_count(), config.repair_steps);
  ASSERT_EQ(engine.step_count(),
            config.storm_hours.size() + config.repair_steps);
  for (std::size_t g = 0; g < config.storm_hours.size(); ++g) {
    EXPECT_EQ(engine.step_hour(g), config.storm_hours[g]);
  }
  const double storm_end = config.storm_hours.back();
  EXPECT_EQ(engine.storm_end_hour(), storm_end);
  for (std::size_t r = 0; r < config.repair_steps; ++r) {
    EXPECT_EQ(engine.step_hour(config.storm_hours.size() + r),
              storm_end + static_cast<double>(r + 1) *
                              config.repair_step_hours);
  }
  EXPECT_GT(engine.baseline_largest_pct(), 0.0);
  EXPECT_LE(engine.baseline_largest_pct(), 100.0);
}

// Replays the engine's documented draw order: one uniform per
// repeater-bearing cable in ascending cable order from child stream
// `trial`. The end of the storm must land exactly on the end-state CRN
// draw: fail_step < storm_steps ⟺ u < p.
TEST_F(TimelineEngineTest, StormEndReproducesEndStateCrnDraw) {
  const FailureSimulator sim(net_, {});
  const double p = 0.55;
  const TimelineEngine engine(sim, uniform_table(net_, p), small_config());
  const std::size_t storm_steps = engine.storm_step_count();
  TimelineScratch scratch;
  const util::Rng base(909);
  for (std::size_t trial = 0; trial < 16; ++trial) {
    util::Rng rng = base.split(trial);
    engine.playback(rng, scratch);
    util::Rng replay = base.split(trial);
    for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
      if (sim.cable_repeater_count(c) == 0) {
        // Repeaterless cables never draw and never fail.
        EXPECT_EQ(scratch.fail_step[c], storm_steps);
        continue;
      }
      const double u = replay.uniform();
      EXPECT_EQ(scratch.fail_step[c] < storm_steps, u < p)
          << "trial " << trial << " cable " << c;
    }
  }
}

// Per-step cross-check against a naive full recompute: at storm step g the
// dead set is {c : fail_step[c] <= g}; at repair step r a cable is dead iff
// it failed and its restoration hour is still in the future. Percentages
// are compared bit-for-bit (identical formulas over identical integers).
TEST_F(TimelineEngineTest, PlaybackMatchesNaivePerStepRecompute) {
  const FailureSimulator sim(net_, {});
  const TimelineEngine engine(sim, uniform_table(net_, 0.6), small_config());
  const std::size_t cables = net_.cable_count();
  const std::size_t storm_steps = engine.storm_step_count();
  const std::size_t total_steps = engine.step_count();
  const std::size_t connected = net_.connected_node_count();
  TimelineScratch scratch;
  const util::Rng base(31337);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    util::Rng rng = base.split(trial);
    engine.playback(rng, scratch);
    for (std::size_t i = 0; i < total_steps; ++i) {
      std::vector<bool> dead(cables, false);
      std::size_t dead_count = 0;
      for (std::size_t c = 0; c < cables; ++c) {
        if (scratch.fail_step[c] >= storm_steps) continue;
        const bool is_dead =
            i < storm_steps
                ? scratch.fail_step[c] <= i
                : engine.step_hour(i) < scratch.restore_hour[c];
        if (is_dead) {
          dead[c] = true;
          ++dead_count;
        }
      }
      const double dead_pct =
          cables > 0 ? 100.0 * static_cast<double>(dead_count) /
                           static_cast<double>(cables)
                     : 0.0;
      EXPECT_EQ(scratch.cables_dead_pct[i], dead_pct)
          << "trial " << trial << " step " << i;
      const std::size_t unreachable = net_.unreachable_nodes(dead).size();
      const double unreachable_pct =
          connected > 0 ? 100.0 * static_cast<double>(unreachable) /
                              static_cast<double>(connected)
                        : 0.0;
      EXPECT_EQ(scratch.nodes_unreachable_pct[i], unreachable_pct)
          << "trial " << trial << " step " << i;
      const auto components = reference::connected_components(
          net_.graph(), net_.mask_for_failures(dead));
      const std::size_t largest = std::max<std::size_t>(
          components.largest_component_size(), net_.node_count() > 0 ? 1 : 0);
      const double largest_pct =
          connected > 0 ? 100.0 * static_cast<double>(largest) /
                              static_cast<double>(connected)
                        : 0.0;
      EXPECT_EQ(scratch.largest_component_pct[i], largest_pct)
          << "trial " << trial << " step " << i;
    }
  }
}

// Failures accumulate during the storm and heal during repair — the dead
// fraction must be monotone on both half-axes of every trial.
TEST_F(TimelineEngineTest, DeadFractionIsMonotonePerPhase)
{
  const FailureSimulator sim(net_, {});
  const TimelineEngine engine(sim, uniform_table(net_, 0.7), small_config());
  const std::size_t storm_steps = engine.storm_step_count();
  TimelineScratch scratch;
  const util::Rng base(5150);
  for (std::size_t trial = 0; trial < 12; ++trial) {
    util::Rng rng = base.split(trial);
    engine.playback(rng, scratch);
    for (std::size_t g = 1; g < storm_steps; ++g) {
      EXPECT_GE(scratch.cables_dead_pct[g], scratch.cables_dead_pct[g - 1]);
    }
    for (std::size_t i = storm_steps + 1; i < engine.step_count(); ++i) {
      EXPECT_LE(scratch.cables_dead_pct[i], scratch.cables_dead_pct[i - 1]);
    }
  }
}

// p = 1 extreme: every mortal cable's threshold is +0.0, so it dies at the
// first step with positive dose share; repeaterless cables never fail.
TEST_F(TimelineEngineTest, CertainDeathFailsAtFirstPositiveDose) {
  const FailureSimulator sim(net_, {});
  const TimelineConfig config = small_config();
  const TimelineEngine engine(sim, uniform_table(net_, 1.0), config);
  std::uint32_t first_positive = 0;
  while (first_positive < config.dose_share.size() &&
         !(config.dose_share[first_positive] > 0.0)) {
    ++first_positive;
  }
  ASSERT_LT(first_positive, config.dose_share.size());
  TimelineScratch scratch;
  util::Rng rng = util::Rng(1).split(0);
  engine.playback(rng, scratch);
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    if (sim.cable_repeater_count(c) > 0) {
      EXPECT_EQ(scratch.fail_step[c], first_positive) << "cable " << c;
    } else {
      EXPECT_EQ(scratch.fail_step[c], engine.storm_step_count());
    }
  }
}

// p = 0: nothing ever fails, every step shows the intact network.
TEST_F(TimelineEngineTest, ZeroProbabilityKeepsNetworkIntact) {
  const FailureSimulator sim(net_, {});
  TimelineEngine engine(sim, uniform_table(net_, 0.0), small_config());
  TimelineConnectivityObserver observer(50.0);
  engine.add_observer(observer);
  engine.run(40, 99, 2);
  const TimelineConnectivityResult& result = observer.result();
  EXPECT_EQ(result.trials, 40u);
  EXPECT_EQ(result.partitioned_trials, 0u);
  for (const TimelineStepStats& step : result.steps) {
    EXPECT_EQ(step.cables_dead_pct.max(), 0.0);
    EXPECT_EQ(step.nodes_unreachable_pct.max(), 0.0);
  }
  EXPECT_EQ(result.peak_nodes_unreachable_pct.max(), 0.0);
}

// The determinism contract: observer aggregates are bit-identical for every
// thread count (fixed 32-trial chunks merged in ascending order).
TEST_F(TimelineEngineTest, ObserverAggregatesAreThreadCountInvariant) {
  const FailureSimulator sim(net_, {});
  TimelineEngine engine(sim, uniform_table(net_, 0.5), small_config());
  TimelineConnectivityObserver observer(50.0);
  engine.add_observer(observer);

  const std::size_t trials = 101;  // deliberately not a chunk multiple
  std::vector<TimelineConnectivityResult> results;
  for (const std::size_t threads : {1u, 2u, 4u, 0u}) {
    engine.run(trials, 4242, threads);
    results.push_back(observer.result());
  }
  const TimelineConnectivityResult& ref = results.front();
  EXPECT_EQ(ref.trials, trials);
  for (std::size_t i = 1; i < results.size(); ++i) {
    const TimelineConnectivityResult& r = results[i];
    EXPECT_EQ(r.trials, ref.trials);
    EXPECT_EQ(r.partitioned_trials, ref.partitioned_trials);
    EXPECT_EQ(r.time_to_partition_hours.count(),
              ref.time_to_partition_hours.count());
    EXPECT_EQ(r.time_to_partition_hours.mean(),
              ref.time_to_partition_hours.mean());
    EXPECT_EQ(r.peak_nodes_unreachable_pct.mean(),
              ref.peak_nodes_unreachable_pct.mean());
    EXPECT_EQ(r.peak_nodes_unreachable_pct.sample_stddev(),
              ref.peak_nodes_unreachable_pct.sample_stddev());
    ASSERT_EQ(r.steps.size(), ref.steps.size());
    for (std::size_t s = 0; s < ref.steps.size(); ++s) {
      EXPECT_EQ(r.steps[s].hour, ref.steps[s].hour);
      EXPECT_EQ(r.steps[s].cables_dead_pct.mean(),
                ref.steps[s].cables_dead_pct.mean());
      EXPECT_EQ(r.steps[s].cables_dead_pct.sample_stddev(),
                ref.steps[s].cables_dead_pct.sample_stddev());
      EXPECT_EQ(r.steps[s].nodes_unreachable_pct.mean(),
                ref.steps[s].nodes_unreachable_pct.mean());
      EXPECT_EQ(r.steps[s].largest_component_pct.mean(),
                ref.steps[s].largest_component_pct.mean());
    }
  }
}

TEST_F(TimelineEngineTest, ZeroTrialsStillProducesSizedResult) {
  const FailureSimulator sim(net_, {});
  TimelineEngine engine(sim, uniform_table(net_, 0.5), small_config());
  TimelineConnectivityObserver observer(50.0);
  engine.add_observer(observer);
  engine.run(0, 7);
  const TimelineConnectivityResult& result = observer.result();
  EXPECT_EQ(result.trials, 0u);
  EXPECT_EQ(result.partitioned_trials, 0u);
  ASSERT_EQ(result.steps.size(), engine.step_count());
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    EXPECT_EQ(result.steps[i].hour, engine.step_hour(i));
    EXPECT_TRUE(result.steps[i].cables_dead_pct.empty());
  }
}

TEST_F(TimelineEngineTest, ObserverRejectsBadThreshold) {
  EXPECT_THROW(TimelineConnectivityObserver(-1.0), std::invalid_argument);
  EXPECT_THROW(TimelineConnectivityObserver(101.0), std::invalid_argument);
}

}  // namespace
}  // namespace solarnet::sim
