#include "routing/traffic_observer.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "gic/failure_model.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "util/checkpoint.h"
#include "util/status.h"

namespace solarnet::routing {
namespace {

void expect_stats_eq(const util::RunningStats& a, const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sample_stddev(), b.sample_stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_sweeps_eq(const TrafficSweep& a, const TrafficSweep& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.demand_pairs, b.demand_pairs);
  EXPECT_EQ(a.offered_gbps, b.offered_gbps);
  expect_stats_eq(a.delivered_fraction, b.delivered_fraction);
  expect_stats_eq(a.stranded_gbps, b.stranded_gbps);
  expect_stats_eq(a.max_utilization, b.max_utilization);
  expect_stats_eq(a.overloaded_cables, b.overloaded_cables);
  expect_stats_eq(a.mean_path_km, b.mean_path_km);
}

// Captures every trial's cable_dead draw so a test can replay it through
// the one-shot TrafficEngine API. Registered alongside the traffic
// observer, it sees the identical draws.
class DrawRecorder final : public sim::TrialObserver {
 public:
  bool needs_components() const override { return false; }
  void begin_run(const sim::TrialPipeline&, std::size_t,
                 std::size_t chunks) override {
    draws_.assign(chunks * sim::kTrialChunk, {});
  }
  void observe(const sim::TrialView& view, std::size_t, std::size_t) override {
    std::vector<bool> dead(view.cable_dead->size());
    for (std::size_t c = 0; c < dead.size(); ++c) {
      dead[c] = view.cable_dead->test(c);
    }
    draws_[view.trial] = std::move(dead);
  }
  void end_run() override {}

  const std::vector<bool>& draw(std::size_t trial) const {
    return draws_[trial];
  }

 private:
  std::vector<std::vector<bool>> draws_;
};

// NY - Bude - Singapore - Sydney line plus a NY-Sydney pacific cable:
// failures disconnect endpoints or shift load onto the long way round.
class TrafficObserverTest : public ::testing::Test {
 protected:
  TrafficObserverTest() : net_("traffic") {
    ny_ = add_node("NY", {40.7, -74.0}, "US");
    bude_ = add_node("Bude", {50.8, -4.5}, "GB");
    sg_ = add_node("Singapore", {1.35, 103.8}, "SG");
    syd_ = add_node("Sydney", {-33.9, 151.2}, "AU");
    add_cable("atlantic", ny_, bude_, 6000.0);
    add_cable("eur-asia", bude_, sg_, 11000.0);
    add_cable("asia-oc", sg_, syd_, 6300.0);
    add_cable("pacific", ny_, syd_, 15000.0);
  }

  topo::NodeId add_node(const char* name, geo::GeoPoint p, const char* cc) {
    return net_.add_node({name, p, cc, topo::NodeKind::kLandingPoint, true});
  }
  void add_cable(const char* name, topo::NodeId a, topo::NodeId b,
                 double len) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, len}};
    net_.add_cable(std::move(c));
  }

  std::vector<TrafficDemand> demands() const {
    return {{ny_, sg_, 400.0}, {ny_, syd_, 300.0}, {bude_, syd_, 200.0},
            {sg_, bude_, 100.0}};
  }

  topo::InfrastructureNetwork net_;
  topo::NodeId ny_{}, bude_{}, sg_{}, syd_{};
};

TEST_F(TrafficObserverTest, MatchesOneShotAssignPerTrial) {
  const gic::UniformFailureModel model(0.35);
  sim::TrialConfig cfg;
  cfg.threads = 1;
  const sim::FailureSimulator simulator(net_, cfg);
  sim::TrialPipeline pipeline(simulator, model);

  const TrafficEngine engine(net_, demands());
  TrafficObserver observer(engine);
  DrawRecorder recorder;
  pipeline.add_observer(observer);
  pipeline.add_observer(recorder);
  const std::size_t trials = 100;
  pipeline.run(trials, 13);

  ASSERT_EQ(observer.result().trials, trials);
  EXPECT_EQ(observer.result().network, "traffic");
  EXPECT_EQ(observer.result().demand_pairs, demands().size());
  EXPECT_EQ(observer.result().offered_gbps, 1000.0);

  // Replay every recorded draw through the one-shot API with the
  // observer's chunk structure: per-chunk accumulators merged in ascending
  // order, which must reproduce the observer's statistics bit for bit.
  const std::size_t chunks = sim::chunk_count(trials);
  std::vector<util::RunningStats> delivered(chunks), stranded(chunks),
      max_util(chunks), overloaded(chunks), path_km(chunks);
  for (std::size_t t = 0; t < trials; ++t) {
    const AssignmentResult r = engine.assign(recorder.draw(t));
    const std::size_t chunk = t / sim::kTrialChunk;
    delivered[chunk].add(r.delivered_fraction());
    stranded[chunk].add(r.undeliverable_gbps);
    max_util[chunk].add(r.max_utilization);
    overloaded[chunk].add(static_cast<double>(r.overloaded_cables));
    path_km[chunk].add(r.mean_path_km);
  }
  TrafficSweep expected;
  for (std::size_t c = 0; c < chunks; ++c) {
    expected.delivered_fraction.merge(delivered[c]);
    expected.stranded_gbps.merge(stranded[c]);
    expected.max_utilization.merge(max_util[c]);
    expected.overloaded_cables.merge(overloaded[c]);
    expected.mean_path_km.merge(path_km[c]);
  }
  expect_stats_eq(observer.result().delivered_fraction,
                  expected.delivered_fraction);
  expect_stats_eq(observer.result().stranded_gbps, expected.stranded_gbps);
  expect_stats_eq(observer.result().max_utilization, expected.max_utilization);
  expect_stats_eq(observer.result().overloaded_cables,
                  expected.overloaded_cables);
  expect_stats_eq(observer.result().mean_path_km, expected.mean_path_km);
}

TEST_F(TrafficObserverTest, ThreadCountBitIdentity) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  const TrafficEngine engine(net_, demands());

  const auto run_with = [&](std::size_t threads) {
    sim::TrialConfig cfg;
    cfg.threads = threads;
    const sim::FailureSimulator simulator(net_, cfg);
    sim::TrialPipeline pipeline(simulator, model);
    TrafficObserver observer(engine);
    pipeline.add_observer(observer);
    pipeline.run(200, 17, threads);
    return observer.result();
  };

  const TrafficSweep serial = run_with(1);
  expect_sweeps_eq(run_with(2), serial);
  expect_sweeps_eq(run_with(4), serial);
}

TEST_F(TrafficObserverTest, CheckpointRoundTripIsBitIdentical) {
  const gic::UniformFailureModel model(0.4);
  sim::TrialConfig cfg;
  cfg.threads = 1;
  const sim::FailureSimulator simulator(net_, cfg);
  sim::TrialPipeline pipeline(simulator, model);
  const TrafficEngine engine(net_, demands());

  // Drive run_trial manually (the bench/campaign idiom): accumulate two
  // chunks, save them, restore into a fresh observer, and require the
  // merged results to match bit for bit.
  const std::size_t trials = 2 * sim::kTrialChunk;
  const util::Rng base(23);
  TrafficObserver direct(engine);
  pipeline.add_observer(direct);
  direct.begin_run(pipeline, 1, 2);
  sim::PipelineScratch scratch;
  for (std::size_t t = 0; t < trials; ++t) {
    pipeline.run_trial(t, base, scratch, 0,
                       t / sim::kTrialChunk);
  }
  util::ByteWriter chunk0, chunk1;
  direct.save_chunk(0, chunk0);
  direct.save_chunk(1, chunk1);
  direct.end_run();

  TrafficObserver restored(engine);
  restored.begin_run(pipeline, 1, 2);
  util::ByteReader r0(chunk0.data()), r1(chunk1.data());
  restored.load_chunk(0, r0);
  restored.load_chunk(1, r1);
  restored.end_run();
  expect_sweeps_eq(restored.result(), direct.result());
}

TEST_F(TrafficObserverTest, ChunkSlotLifecycleIsGuarded) {
  const TrafficEngine engine(net_, demands());
  TrafficObserver observer(engine);
  // No begin_run yet: every slot access is a lifecycle violation.
  util::ByteWriter out;
  try {
    observer.save_chunk(0, out);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("TrafficObserver"),
              std::string::npos);
  }
}

TEST_F(TrafficObserverTest, CheckpointIdCarriesConfiguration) {
  const TrafficEngine engine(net_, demands());
  const TrafficEngine other(net_, {{ny_, sg_, 400.0}});
  EXPECT_NE(TrafficObserver(engine).checkpoint_id(),
            TrafficObserver(other).checkpoint_id());
  EXPECT_NE(TrafficObserver(engine).checkpoint_id().find("traffic/v1/"),
            std::string::npos);
}

TEST_F(TrafficObserverTest, ZeroTrialsYieldsEmptySweep) {
  const gic::UniformFailureModel model(0.5);
  const sim::FailureSimulator simulator(net_, {});
  sim::TrialPipeline pipeline(simulator, model);
  const TrafficEngine engine(net_, demands());
  TrafficObserver observer(engine);
  pipeline.add_observer(observer);
  pipeline.run(0, 7);
  EXPECT_EQ(observer.result().trials, 0u);
  EXPECT_TRUE(observer.result().delivered_fraction.empty());
}

TEST_F(TrafficObserverTest, ReportRendersTrafficSection) {
  const gic::UniformFailureModel model(0.3);
  sim::TrialConfig cfg;
  cfg.threads = 1;
  const sim::FailureSimulator simulator(net_, cfg);
  sim::TrialPipeline pipeline(simulator, model);
  const TrafficEngine engine(net_, demands());
  TrafficObserver observer(engine);
  pipeline.add_observer(observer);
  pipeline.run(50, 19);

  analysis::ResilienceReport report;
  report.title = "traffic render test";
  report.traffic.push_back(observer.result());
  const std::string text = report.render();
  EXPECT_NE(text.find("Post-failure traffic routing"), std::string::npos);
  EXPECT_NE(text.find("traffic"), std::string::npos);
  EXPECT_NE(text.find("stranded Gbps"), std::string::npos);
}

}  // namespace
}  // namespace solarnet::routing
