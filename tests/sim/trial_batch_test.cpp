#include "sim/trial_batch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gic/failure_model.h"
#include "graph/components.h"
#include "sim/pipeline.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace solarnet::sim {
namespace {

// High-latitude line, equatorial line, and a repeaterless spur: exercises
// per-cable probabilities that differ, draw-consuming and non-consuming
// cables, and the paper's latitude-keyed S1 model.
class TrialBatchTest : public ::testing::Test {
 protected:
  TrialBatchTest() : net_("batch") {
    const auto osl = add_node("Oslo", {65.0, 10.0}, "NO");
    const auto ny = add_node("NY", {40.7, -74.0}, "US");
    const auto sg = add_node("Singapore", {1.35, 103.8}, "SG");
    const auto lis = add_node("Lisbon", {38.7, -9.1}, "PT");
    add_cable("north", osl, ny, 1500.0);
    add_cable("equator", sg, lis, 1500.0);
    add_cable("short", ny, lis, 100.0);  // 0 repeaters at 150 km spacing
    add_cable("asia", ny, sg, 11000.0);
  }

  topo::NodeId add_node(const char* name, geo::GeoPoint p, const char* cc) {
    return net_.add_node({name, p, cc, topo::NodeKind::kLandingPoint, true});
  }
  void add_cable(const char* name, topo::NodeId a, topo::NodeId b, double km) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, km}};
    net_.add_cable(std::move(c));
  }

  topo::InfrastructureNetwork net_;
};

topo::InfrastructureNetwork random_network(util::Rng& rng, std::size_t nodes,
                                           std::size_t cables) {
  topo::InfrastructureNetwork net("random");
  for (std::size_t i = 0; i < nodes; ++i) {
    net.add_node({"n" + std::to_string(i),
                  {rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0)},
                  "US",
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

void expect_stats_eq(const util::RunningStats& a, const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sample_stddev(), b.sample_stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST_F(TrialBatchTest, LanesBitIdenticalToScalarSampler) {
  TrialConfig cfg;
  cfg.threads = 1;
  const FailureSimulator simulator(net_, cfg);
  const auto model = gic::LatitudeBandFailureModel::s1();
  const auto table = simulator.death_probability_table(model);
  const TrialBatchKernel kernel(simulator, table);
  const util::Rng base(123);

  TrialBatch batch;
  util::Bitset scalar_dead;
  util::Bitset lane_dead;
  for (const auto& [first, lanes] :
       std::vector<std::pair<std::size_t, unsigned>>{{0, 64}, {64, 64},
                                                     {1000, 5}, {3, 1}}) {
    kernel.sample(base, first, lanes, batch);
    ASSERT_EQ(batch.lanes, lanes);
    for (unsigned lane = 0; lane < lanes; ++lane) {
      util::Rng rng = base.split(first + lane);
      simulator.sample_cable_failures(table, rng, scalar_dead);
      kernel.extract_lane(batch, lane, lane_dead);
      EXPECT_TRUE(lane_dead == scalar_dead)
          << "first " << first << " lane " << lane;
    }
  }
}

TEST_F(TrialBatchTest, BatchedCountsMatchScalarAggregates) {
  TrialConfig cfg;
  cfg.threads = 1;
  const FailureSimulator simulator(net_, cfg);
  const auto model = gic::LatitudeBandFailureModel::s1();
  const auto table = simulator.death_probability_table(model);
  const TrialBatchKernel kernel(simulator, table);
  const util::Rng base(7);

  TrialBatch batch;
  kernel.sample(base, 0, 64, batch);
  std::uint32_t cables[64], nodes[64], largest[64];
  kernel.count_cables_failed(batch, cables);
  kernel.count_unreachable_nodes(batch, nodes);
  BatchConnectivityScratch comp_scratch;
  kernel.largest_components(batch, comp_scratch, largest);

  util::Bitset dead;
  std::vector<topo::NodeId> unreachable;
  graph::AliveMask mask;
  graph::ComponentScratch scratch;
  graph::ComponentResult components;
  const graph::Csr& csr = net_.csr();
  for (unsigned lane = 0; lane < 64; ++lane) {
    util::Rng rng = base.split(lane);
    simulator.sample_cable_failures(table, rng, dead);
    EXPECT_EQ(cables[lane], dead.count()) << "lane " << lane;
    net_.unreachable_nodes(dead, unreachable);
    EXPECT_EQ(nodes[lane], unreachable.size()) << "lane " << lane;
    net_.mask_for_failures(dead, mask);
    graph::connected_components(csr, mask, scratch, components);
    EXPECT_EQ(largest[lane], components.largest_component_size())
        << "lane " << lane;
  }
}

TEST_F(TrialBatchTest, RunTrialsAutoBitIdenticalToScalarEngine) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  for (const std::size_t trials : {1u, 31u, 33u, 64u, 100u, 257u}) {
    for (const std::size_t threads : {1u, 3u}) {
      TrialConfig scalar_cfg;
      scalar_cfg.threads = threads;
      scalar_cfg.engine = TrialEngine::kScalar;
      TrialConfig auto_cfg = scalar_cfg;
      auto_cfg.engine = TrialEngine::kAuto;
      const FailureSimulator scalar_sim(net_, scalar_cfg);
      const FailureSimulator auto_sim(net_, auto_cfg);
      const auto reference = scalar_sim.run_trials(model, trials, 42);
      const auto batched = auto_sim.run_trials(model, trials, 42);
      EXPECT_EQ(batched.trials, reference.trials);
      expect_stats_eq(batched.cables_failed_pct, reference.cables_failed_pct);
      expect_stats_eq(batched.nodes_unreachable_pct,
                      reference.nodes_unreachable_pct);
    }
  }
}

TEST(TrialBatchProperty, RandomNetworksMatchScalarEngine) {
  util::Rng rng(5150);
  for (int round = 0; round < 4; ++round) {
    const auto net = random_network(rng, 5 + round * 12, 8 + round * 20);
    // Spread over the probability range, including the certain-death
    // endpoint that exercises the no-draw fast path.
    const double p = round == 3 ? 1.0 : rng.uniform(0.0, 0.6);
    const gic::UniformFailureModel model(p);
    TrialConfig scalar_cfg;
    scalar_cfg.threads = 2;
    scalar_cfg.engine = TrialEngine::kScalar;
    TrialConfig auto_cfg = scalar_cfg;
    auto_cfg.engine = TrialEngine::kAuto;
    const FailureSimulator scalar_sim(net, scalar_cfg);
    const FailureSimulator auto_sim(net, auto_cfg);
    const auto reference = scalar_sim.run_trials(model, 90, 11 + round);
    const auto batched = auto_sim.run_trials(model, 90, 11 + round);
    expect_stats_eq(batched.cables_failed_pct, reference.cables_failed_pct);
    expect_stats_eq(batched.nodes_unreachable_pct,
                    reference.nodes_unreachable_pct);
  }
}

TEST_F(TrialBatchTest, KernelValidatesRuleAndTable) {
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  cfg.death_fraction = 0.5;
  const FailureSimulator fraction_sim(net_, cfg);
  DeathProbabilityTable table;
  table.probability.assign(net_.cable_count(), 0.1);
  EXPECT_THROW(TrialBatchKernel(fraction_sim, table), std::invalid_argument);

  const FailureSimulator any_sim(net_, TrialConfig{});
  DeathProbabilityTable short_table;
  short_table.probability.assign(net_.cable_count() - 1, 0.1);
  EXPECT_THROW(TrialBatchKernel(any_sim, short_table), std::invalid_argument);

  const auto model = gic::LatitudeBandFailureModel::s1();
  const auto good = any_sim.death_probability_table(model);
  const TrialBatchKernel kernel(any_sim, good);
  TrialBatch batch;
  EXPECT_THROW(kernel.sample(util::Rng(1), 0, 0, batch),
               std::invalid_argument);
  EXPECT_THROW(kernel.sample(util::Rng(1), 0, 65, batch),
               std::invalid_argument);
}

// For every batch size 1..64, the kernel's query labels partition the
// query nodes exactly as the scalar masked decomposition of the same lane
// does, a node whose cables all died gets its island label, kInvalidNode
// gets kNoLabel, and every label equals sim::component_labels' up to the
// renaming of components.
TEST(TrialBatchLabels, LabelsShareExactlyWhenScalarComponentsDo) {
  util::Rng net_rng(404);
  // Sparse enough that many nodes go dark under S2.
  const topo::InfrastructureNetwork net = random_network(net_rng, 60, 70);
  TrialConfig cfg;
  cfg.threads = 1;
  const FailureSimulator simulator(net, cfg);
  const auto model = gic::LatitudeBandFailureModel::s2();
  const auto table = simulator.death_probability_table(model);
  const TrialBatchKernel kernel(simulator, table);

  std::vector<topo::NodeId> queries;
  for (topo::NodeId n = 0; n < net.node_count(); n += 2) queries.push_back(n);
  queries.push_back(topo::kInvalidNode);
  const std::size_t q = queries.size();

  TrialBatch batch;
  BatchConnectivityScratch scratch;
  std::uint32_t largest[64];
  std::vector<std::uint32_t> labels(64 * q);
  util::Bitset dead;
  graph::AliveMask mask;
  graph::ComponentScratch comp_scratch;
  graph::ComponentResult components;
  std::vector<std::uint32_t> scalar(q);
  std::size_t dark_seen = 0;
  for (unsigned lanes = 1; lanes <= 64; ++lanes) {
    const util::Rng base(9000 + lanes);
    kernel.sample(base, 0, lanes, batch);
    kernel.largest_components(batch, scratch, largest, queries,
                              labels.data());
    for (unsigned lane = 0; lane < lanes; ++lane) {
      kernel.extract_lane(batch, lane, dead);
      net.mask_for_failures(dead, mask);
      graph::connected_components(net.csr(), mask, comp_scratch, components);
      component_labels(net, dead, components, queries, scalar.data());
      const std::uint32_t* lane_labels = labels.data() + lane * q;
      EXPECT_EQ(largest[lane], components.largest_component_size());
      for (std::size_t i = 0; i + 1 < q; ++i) {
        if (net.node_unreachable(queries[i], dead)) {
          ++dark_seen;
          EXPECT_EQ(lane_labels[i], graph::kIslandBase + queries[i]);
        }
        for (std::size_t j = 0; j + 1 < q; ++j) {
          EXPECT_EQ(lane_labels[i] == lane_labels[j],
                    components.same_component(queries[i], queries[j]))
              << "lanes " << lanes << " lane " << lane << " nodes "
              << queries[i] << "," << queries[j];
          EXPECT_EQ(lane_labels[i] == lane_labels[j], scalar[i] == scalar[j]);
        }
        EXPECT_NE(lane_labels[i], lane_labels[q - 1]);
      }
      EXPECT_EQ(lane_labels[q - 1], graph::kNoLabel);
      EXPECT_EQ(scalar[q - 1], graph::kNoLabel);
    }
  }
  EXPECT_GT(dark_seen, 0u);
}

// A deliberately scalar observer (supports_batch() == false): on the
// batched pipeline path it must see per-lane TrialViews indistinguishable
// from the scalar path — same draw, same counts, same largest component.
// The counts are recounted from the view's dead set.
class RecordingObserver final : public TrialObserver {
 public:
  struct Record {
    std::size_t trial;
    std::size_t cables_failed;
    double cables_failed_pct;
    std::size_t unreachable;
    double nodes_unreachable_pct;
    std::size_t largest_component;
  };

  bool needs_components() const override { return true; }
  void begin_run(const TrialPipeline& pipeline, std::size_t,
                 std::size_t) override {
    net_ = &pipeline.network();
    records_.clear();
  }
  void observe(const TrialView& view, std::size_t, std::size_t) override {
    net_->unreachable_nodes(*view.cable_dead, unreachable_);
    Record r;
    r.trial = view.trial;
    r.cables_failed = view.cable_dead->count();
    r.cables_failed_pct = view.cables_failed_pct;
    r.unreachable = unreachable_.size();
    r.nodes_unreachable_pct = view.nodes_unreachable_pct;
    r.largest_component = view.largest_component;
    records_.push_back(r);
  }
  void end_run() override {}

  // Single-threaded runs only (records are appended unsynchronized).
  const std::vector<Record>& records() const { return records_; }

 private:
  const topo::InfrastructureNetwork* net_ = nullptr;
  std::vector<topo::NodeId> unreachable_;
  std::vector<Record> records_;
};

TEST_F(TrialBatchTest, BatchedPipelineFeedsScalarObserversIdentically) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  TrialConfig scalar_cfg;
  scalar_cfg.threads = 1;
  scalar_cfg.engine = TrialEngine::kScalar;
  TrialConfig auto_cfg = scalar_cfg;
  auto_cfg.engine = TrialEngine::kAuto;
  const FailureSimulator scalar_sim(net_, scalar_cfg);
  const FailureSimulator auto_sim(net_, auto_cfg);

  constexpr std::size_t kTrials = 70;  // one full batch + a partial one
  RecordingObserver scalar_rec;
  ConnectivityObserver scalar_conn;
  TrialPipeline scalar_pipeline(scalar_sim, model);
  scalar_pipeline.add_observer(scalar_rec);
  scalar_pipeline.add_observer(scalar_conn);
  scalar_pipeline.run(kTrials, 77);

  RecordingObserver batched_rec;
  ConnectivityObserver batched_conn;
  TrialPipeline batched_pipeline(auto_sim, model);
  batched_pipeline.add_observer(batched_rec);
  batched_pipeline.add_observer(batched_conn);
  batched_pipeline.run(kTrials, 77);

  ASSERT_EQ(batched_rec.records().size(), scalar_rec.records().size());
  for (std::size_t i = 0; i < kTrials; ++i) {
    const auto& a = scalar_rec.records()[i];
    const auto& b = batched_rec.records()[i];
    EXPECT_EQ(a.trial, b.trial);
    EXPECT_EQ(a.cables_failed, b.cables_failed);
    EXPECT_EQ(a.cables_failed_pct, b.cables_failed_pct);
    EXPECT_EQ(a.unreachable, b.unreachable);
    EXPECT_EQ(a.nodes_unreachable_pct, b.nodes_unreachable_pct);
    EXPECT_EQ(a.largest_component, b.largest_component);
  }
  expect_stats_eq(batched_conn.result().cables_failed_pct,
                  scalar_conn.result().cables_failed_pct);
  expect_stats_eq(batched_conn.result().nodes_unreachable_pct,
                  scalar_conn.result().nodes_unreachable_pct);
  expect_stats_eq(batched_conn.result().largest_component_pct,
                  scalar_conn.result().largest_component_pct);
}

TEST_F(TrialBatchTest, BatchedConnectivityThreadCountInvariant) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  ConnectivityObserver::Result reference;
  for (const std::size_t threads : {1u, 2u, 5u}) {
    TrialConfig cfg;
    cfg.threads = threads;
    const FailureSimulator simulator(net_, cfg);
    TrialPipeline pipeline(simulator, model);
    ConnectivityObserver conn;
    pipeline.add_observer(conn);
    pipeline.run(200, 31);
    if (threads == 1) {
      reference = conn.result();
    } else {
      expect_stats_eq(conn.result().cables_failed_pct,
                      reference.cables_failed_pct);
      expect_stats_eq(conn.result().nodes_unreachable_pct,
                      reference.nodes_unreachable_pct);
      expect_stats_eq(conn.result().largest_component_pct,
                      reference.largest_component_pct);
    }
  }
}

}  // namespace
}  // namespace solarnet::sim
