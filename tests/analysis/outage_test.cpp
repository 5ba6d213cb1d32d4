#include "analysis/outage.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/timeline_engine.h"
#include "topology/network.h"
#include "util/rng.h"

namespace solarnet::analysis {
namespace {

// Deterministic three-country network:
//   US1 -- GB1   1500 km international cable (10 repeaters => mortal)
//   US1 -- US2   1500 km domestic cable      (mortal, but not international)
//   JP1 -- JP2   1500 km domestic cable — "JP" has NO international cables
// so US and GB each hang off exactly one international cable, and JP can
// never be cut off by the all-international-cables-down definition.
class OutageTest : public ::testing::Test {
 protected:
  OutageTest() : net_("outage") {
    const auto us1 = net_.add_node(
        {"US1", {40.0, -74.0}, "US", topo::NodeKind::kLandingPoint, true});
    const auto us2 = net_.add_node(
        {"US2", {34.0, -118.0}, "US", topo::NodeKind::kLandingPoint, true});
    const auto gb1 = net_.add_node(
        {"GB1", {51.0, 0.0}, "GB", topo::NodeKind::kLandingPoint, true});
    const auto jp1 = net_.add_node(
        {"JP1", {35.0, 139.0}, "JP", topo::NodeKind::kLandingPoint, true});
    const auto jp2 = net_.add_node(
        {"JP2", {34.0, 135.0}, "JP", topo::NodeKind::kLandingPoint, true});
    topo::Cable transatlantic;
    transatlantic.name = "us-gb";
    transatlantic.segments = {{us1, gb1, 1500.0}};
    intl_ = net_.add_cable(std::move(transatlantic));
    topo::Cable domestic;
    domestic.name = "us-us";
    domestic.segments = {{us1, us2, 1500.0}};
    net_.add_cable(std::move(domestic));
    topo::Cable japan;
    japan.name = "jp-jp";
    japan.segments = {{jp1, jp2, 1500.0}};
    net_.add_cable(std::move(japan));
  }

  sim::DeathProbabilityTable table(double p) const {
    sim::DeathProbabilityTable t;
    t.probability.assign(net_.cable_count(), p);
    return t;
  }

  static sim::TimelineConfig config() {
    sim::TimelineConfig c = sim::TimelineConfig::from_profile({}, 12.0);
    c.repair_steps = 8;
    c.repair_step_hours = 5.0 * 24.0;
    return c;
  }

  topo::InfrastructureNetwork net_;
  topo::CableId intl_{};
};

TEST_F(OutageTest, CertainFailureCutsOffBothEndsOfTheOnlyIntlCable) {
  const sim::FailureSimulator sim(net_, {});
  sim::TimelineEngine engine(sim, table(1.0), config());
  CountryOutageObserver observer(net_, {"US", "GB", "JP"});
  engine.add_observer(observer);
  const std::size_t trials = 24;
  engine.run(trials, 3);

  const auto& results = observer.results();
  ASSERT_EQ(results.size(), 3u);

  // With p = 1 every mortal cable fails at the first positive-dose step, so
  // the single transatlantic cable is down in every trial — both US and GB
  // are cut off every time, for the same interval (same cable).
  const sim::TimelineConfig cfg = config();
  std::size_t first_positive = 0;
  while (!(cfg.dose_share[first_positive] > 0.0)) ++first_positive;
  const double fail_hour = cfg.storm_hours[first_positive];

  for (std::size_t i = 0; i < 2; ++i) {
    const CountryOutageResult& r = results[i];
    EXPECT_EQ(r.international_cable_count, 1u);
    EXPECT_EQ(r.trials, trials);
    EXPECT_EQ(r.cutoff_trials, trials);
    // Cutoff opens when the cable fails...
    EXPECT_EQ(r.cutoff_start_hour.count(), trials);
    EXPECT_EQ(r.cutoff_start_hour.min(), fail_hour);
    EXPECT_EQ(r.cutoff_start_hour.max(), fail_hour);
    // ...and lasts until its restoration, which is after the storm ends.
    EXPECT_EQ(r.outage_hours.count(), trials);
    EXPECT_GT(r.outage_hours.min(), cfg.storm_hours.back() - fail_hour);
  }
  EXPECT_EQ(results[0].country, "US");
  EXPECT_EQ(results[1].country, "GB");
  // Same cable => identical interval for both countries.
  EXPECT_EQ(results[0].outage_hours.mean(), results[1].outage_hours.mean());

  // JP has no international cables — never registered as cut off, but its
  // zero-outage trials still count toward the distribution.
  const CountryOutageResult& jp = results[2];
  EXPECT_EQ(jp.country, "JP");
  EXPECT_EQ(jp.international_cable_count, 0u);
  EXPECT_EQ(jp.trials, trials);
  EXPECT_EQ(jp.cutoff_trials, 0u);
  EXPECT_EQ(jp.outage_hours.mean(), 0.0);
}

TEST_F(OutageTest, ZeroProbabilityNeverCutsAnyoneOff) {
  const sim::FailureSimulator sim(net_, {});
  sim::TimelineEngine engine(sim, table(0.0), config());
  CountryOutageObserver observer(net_, {"US", "GB"});
  engine.add_observer(observer);
  engine.run(16, 9);
  for (const CountryOutageResult& r : observer.results()) {
    EXPECT_EQ(r.trials, 16u);
    EXPECT_EQ(r.cutoff_trials, 0u);
    EXPECT_EQ(r.outage_hours.count(), 16u);
    EXPECT_EQ(r.outage_hours.max(), 0.0);
    EXPECT_TRUE(r.cutoff_start_hour.empty());
  }
}

TEST_F(OutageTest, UnknownCountryHasNoCablesAndNoCutoffs) {
  const sim::FailureSimulator sim(net_, {});
  sim::TimelineEngine engine(sim, table(1.0), config());
  CountryOutageObserver observer(net_, {"FR"});
  engine.add_observer(observer);
  engine.run(8, 21);
  ASSERT_EQ(observer.results().size(), 1u);
  const CountryOutageResult& fr = observer.results().front();
  EXPECT_EQ(fr.international_cable_count, 0u);
  EXPECT_EQ(fr.trials, 8u);
  EXPECT_EQ(fr.cutoff_trials, 0u);
}

TEST_F(OutageTest, ResultsAreThreadCountInvariant) {
  const sim::FailureSimulator sim(net_, {});
  sim::TimelineEngine engine(sim, table(0.5), config());
  CountryOutageObserver observer(net_, {"US", "GB", "JP"});
  engine.add_observer(observer);

  const std::size_t trials = 77;  // spans multiple chunks, not a multiple
  std::vector<std::vector<CountryOutageResult>> runs;
  for (const std::size_t threads : {1u, 2u, 4u, 0u}) {
    engine.run(trials, 1234, threads);
    runs.push_back(observer.results());
  }
  const auto& ref = runs.front();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].size(), ref.size());
    for (std::size_t c = 0; c < ref.size(); ++c) {
      EXPECT_EQ(runs[i][c].country, ref[c].country);
      EXPECT_EQ(runs[i][c].trials, ref[c].trials);
      EXPECT_EQ(runs[i][c].cutoff_trials, ref[c].cutoff_trials);
      EXPECT_EQ(runs[i][c].outage_hours.mean(), ref[c].outage_hours.mean());
      EXPECT_EQ(runs[i][c].outage_hours.sample_stddev(),
                ref[c].outage_hours.sample_stddev());
      EXPECT_EQ(runs[i][c].cutoff_start_hour.mean(),
                ref[c].cutoff_start_hour.mean());
    }
  }
  // Sanity on the partial-failure regime: some trials cut off, some not.
  EXPECT_GT(ref[0].cutoff_trials, 0u);
  EXPECT_LT(ref[0].cutoff_trials, trials);
}

}  // namespace
}  // namespace solarnet::analysis
