// The report observers (service availability, DNS resolution, country
// isolation) evaluate each trial from the component labels of their
// distinct attachment nodes, on the 64-lane path per batch. They must
// answer exactly as the frozen observers of
// bench/reference/report_observers.h, which decompose every trial's masked
// network, on both engines, for any thread count and trial count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "core/scenario.h"
#include "core/world.h"
#include "datasets/datacenters.h"
#include "gic/failure_model.h"
#include "reference/report_observers.h"
#include "server/request.h"
#include "services/availability.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "util/rng.h"

namespace solarnet {
namespace {

void expect_stats_eq(const util::RunningStats& a, const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sample_stddev(), b.sample_stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_sweep_eq(const services::AvailabilitySweep& a,
                     const services::AvailabilitySweep& b) {
  EXPECT_EQ(a.service, b.service);
  EXPECT_EQ(a.draws, b.draws);
  expect_stats_eq(a.read_availability, b.read_availability);
  expect_stats_eq(a.write_availability, b.write_availability);
}

void expect_dns_eq(const analysis::DnsResolutionSweep& a,
                   const analysis::DnsResolutionSweep& b) {
  EXPECT_EQ(a.trials, b.trials);
  expect_stats_eq(a.resolution_availability, b.resolution_availability);
  expect_stats_eq(a.mean_letters_reachable, b.mean_letters_reachable);
  EXPECT_EQ(a.degraded_trials, b.degraded_trials);
  EXPECT_EQ(a.heavy_loss_trials, b.heavy_loss_trials);
  EXPECT_EQ(a.joint_trials, b.joint_trials);
}

void expect_isolation_eq(
    const std::vector<analysis::CountryIsolationResult>& a,
    const std::vector<analysis::CountryIsolationResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].country, b[i].country);
    EXPECT_EQ(a[i].international_cable_count, b[i].international_cable_count);
    EXPECT_EQ(a[i].trials, b[i].trials);
    EXPECT_EQ(a[i].isolated_trials, b[i].isolated_trials);
    expect_stats_eq(a[i].surviving_cables, b[i].surviving_cables);
  }
}

// What a report asks of one network: two services, a root set, countries.
struct ReportInputs {
  services::ServiceSpec first;
  services::ServiceSpec second;
  std::vector<datasets::DnsRootInstance> roots;
  std::vector<std::string> countries;
};

// The live report observers on their own pipeline.
struct LiveReport {
  LiveReport(const topo::InfrastructureNetwork& net, const ReportInputs& in)
      : first(net, in.first),
        second(net, in.second),
        dns(net, in.roots, 10.0),
        isolation(net, in.countries) {}
  void add_to(sim::TrialPipeline& pipeline) {
    pipeline.add_observer(connectivity);
    pipeline.add_observer(first);
    pipeline.add_observer(second);
    pipeline.add_observer(dns);
    pipeline.add_observer(isolation);
  }
  sim::ConnectivityObserver connectivity;
  services::AvailabilityObserver first;
  services::AvailabilityObserver second;
  analysis::DnsResolutionObserver dns;
  analysis::CountryIsolationObserver isolation;
};

// The frozen observers, fed through reference::ReportObservers.
struct FrozenReport {
  FrozenReport(const topo::InfrastructureNetwork& net, const ReportInputs& in)
      : first(net, in.first),
        second(net, in.second),
        dns(net, in.roots, 10.0),
        isolation(net, in.countries) {
    fan.add(first);
    fan.add(second);
    fan.add(dns);
    fan.add(isolation);
  }
  reference::AvailabilityObserver first;
  reference::AvailabilityObserver second;
  reference::DnsResolutionObserver dns;
  reference::CountryIsolationObserver isolation;
  reference::ReportObservers fan;
};

void expect_report_eq(const LiveReport& live, const FrozenReport& frozen) {
  expect_sweep_eq(live.first.result(), frozen.first.result());
  expect_sweep_eq(live.second.result(), frozen.second.result());
  expect_dns_eq(live.dns.result(), frozen.dns.result());
  expect_isolation_eq(live.isolation.results(), frozen.isolation.results());
}

// Runs the live and the frozen observers over the same draws.
void expect_parity(const topo::InfrastructureNetwork& net,
                   const gic::RepeaterFailureModel& model,
                   const ReportInputs& in, sim::TrialEngine engine,
                   std::size_t trials, std::uint64_t seed,
                   std::size_t threads) {
  sim::TrialConfig cfg;
  cfg.engine = engine;
  const sim::FailureSimulator simulator(net, cfg);
  LiveReport live(net, in);
  sim::TrialPipeline live_pipeline(simulator, model);
  live.add_to(live_pipeline);
  live_pipeline.run(trials, seed, threads);

  FrozenReport frozen(net, in);
  sim::TrialPipeline frozen_pipeline(simulator, model);
  frozen_pipeline.add_observer(frozen.fan);
  frozen_pipeline.run(trials, seed, threads);
  expect_report_eq(live, frozen);
}

// A sparse random network: most nodes carry one or two cables, so under a
// heavy model most landing nodes go dark. Country codes cycle over four
// countries so every country has international cables.
topo::InfrastructureNetwork random_network(util::Rng& rng, std::size_t nodes,
                                           std::size_t cables) {
  static const char* kCountries[] = {"US", "GB", "SG", "BR"};
  topo::InfrastructureNetwork net("random");
  for (std::size_t i = 0; i < nodes; ++i) {
    net.add_node({"n" + std::to_string(i),
                  {rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0)},
                  kCountries[i % 4],
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

// Replicas and root instances at node locations, several of them stacked
// on one node, plus points in open ocean that attach to whatever is near.
ReportInputs random_inputs(const topo::InfrastructureNetwork& net,
                           util::Rng& rng) {
  ReportInputs in;
  const auto node_point = [&] {
    return net.node(static_cast<topo::NodeId>(rng.uniform_below(
                        net.node_count())))
        .location;
  };
  const geo::GeoPoint stacked = node_point();
  in.first.name = "first";
  in.first.replicas = {stacked, stacked, stacked, node_point(), node_point()};
  in.first.write_quorum = 2;
  in.second.name = "second";
  in.second.replicas = {node_point(),
                        {rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)}};
  in.second.write_quorum = 1;
  for (int i = 0; i < 40; ++i) {
    const char letter = static_cast<char>('a' + rng.uniform_below(13));
    const geo::GeoPoint p = i % 5 == 0 ? stacked : node_point();
    in.roots.push_back({letter, p, "US", geo::Continent::kNorthAmerica});
  }
  in.countries = {"US", "GB", "SG", "BR", "ZZ"};
  return in;
}

// Counts the trials in which some of `nodes` lost every cable.
class DarkNodeCounter final : public sim::TrialObserver {
 public:
  explicit DarkNodeCounter(std::vector<topo::NodeId> nodes)
      : nodes_(std::move(nodes)) {}
  bool needs_components() const override { return false; }
  void begin_run(const sim::TrialPipeline& pipeline, std::size_t,
                 std::size_t) override {
    net_ = &pipeline.network();
  }
  void observe(const sim::TrialView& view, std::size_t,
               std::size_t) override {
    for (const topo::NodeId n : nodes_) {
      if (net_->node_unreachable(n, *view.cable_dead)) {
        ++dark_trials_;
        return;
      }
    }
  }
  void end_run() override {}
  // Single-threaded runs only.
  std::size_t dark_trials() const { return dark_trials_; }

 private:
  std::vector<topo::NodeId> nodes_;
  const topo::InfrastructureNetwork* net_ = nullptr;
  std::size_t dark_trials_ = 0;
};

TEST(ReportObserverParity, RandomNetworksMatchFrozenObserversOnBothEngines) {
  const gic::UniformFailureModel heavy(0.05);
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  for (const std::uint64_t net_seed : {1u, 2u, 3u, 4u}) {
    util::Rng rng(net_seed);
    const topo::InfrastructureNetwork net = random_network(rng, 40, 45);
    const ReportInputs in = random_inputs(net, rng);

    // The evaluators' query nodes go dark in some trials.
    const services::ServiceEvaluator first(net, in.first);
    DarkNodeCounter dark({first.nodes().begin(), first.nodes().end()});
    const sim::FailureSimulator simulator(net, {});
    sim::TrialPipeline pipeline(simulator, heavy);
    pipeline.add_observer(dark);
    pipeline.run(150, 70 + net_seed, 1);
    EXPECT_GT(dark.dark_trials(), 0u);

    for (const sim::TrialEngine engine :
         {sim::TrialEngine::kAuto, sim::TrialEngine::kScalar}) {
      SCOPED_TRACE("network " + std::to_string(net_seed) + " engine " +
                   (engine == sim::TrialEngine::kAuto ? "auto" : "scalar"));
      expect_parity(net, heavy, in, engine, 150, 70 + net_seed, 1);
      expect_parity(net, s1, in, engine, 130, 90 + net_seed, 2);
    }
  }
}

// With no cable at all every replica, root and anchor attaches to
// kInvalidNode: nothing is reachable and every country is isolated.
TEST(ReportObserverParity, CablelessNetworkMatchesFrozenObservers) {
  topo::InfrastructureNetwork net("empty");
  for (int i = 0; i < 5; ++i) {
    net.add_node({"n" + std::to_string(i),
                  {10.0 * i, 20.0 * i},
                  "US",
                  topo::NodeKind::kLandingPoint,
                  true});
  }
  ReportInputs in;
  in.first = {"first", {{10.0, 20.0}, {10.0, 20.0}}, 2};
  in.second = {"second", {{40.0, 80.0}}, 1};
  in.roots = {{'a', {0.0, 0.0}, "US", geo::Continent::kNorthAmerica},
              {'m', {30.0, 60.0}, "US", geo::Continent::kNorthAmerica}};
  in.countries = {"US"};
  const services::ServiceEvaluator evaluator(net, in.first);
  ASSERT_EQ(evaluator.nodes().size(), 1u);
  EXPECT_EQ(evaluator.nodes()[0], topo::kInvalidNode);

  const gic::UniformFailureModel model(0.5);
  for (const sim::TrialEngine engine :
       {sim::TrialEngine::kAuto, sim::TrialEngine::kScalar}) {
    expect_parity(net, model, in, engine, 70, 5, 1);
  }
  sim::TrialConfig cfg;
  const sim::FailureSimulator simulator(net, cfg);
  LiveReport live(net, in);
  sim::TrialPipeline pipeline(simulator, model);
  live.add_to(pipeline);
  pipeline.run(40, 5, 1);
  EXPECT_EQ(live.first.result().read_availability.max(), 0.0);
  EXPECT_EQ(live.dns.result().resolution_availability.max(), 0.0);
  EXPECT_EQ(live.isolation.results()[0].isolated_trials, 40u);
}

// 63, 64 and 65 trials straddle the 64-lane batch; 1, 2 and 4 threads
// split it differently. Every combination equals the frozen single-thread
// run.
TEST(ReportObserverParity, ThreadAndTrialCountsMatchFrozenObservers) {
  util::Rng rng(17);
  const topo::InfrastructureNetwork net = random_network(rng, 50, 80);
  const ReportInputs in = random_inputs(net, rng);
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  for (const sim::TrialEngine engine :
       {sim::TrialEngine::kAuto, sim::TrialEngine::kScalar}) {
    for (const std::size_t trials : {63u, 64u, 65u}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(trials) + " trials, " +
                     std::to_string(threads) + " threads");
        expect_parity(net, s2, in, engine, trials, 29, threads);
      }
    }
  }
}

// The replica set core::ReportBundle builds for an operator.
services::ServiceSpec datacenter_service(datasets::DataCenterOperator op,
                                         std::size_t quorum) {
  services::ServiceSpec spec;
  spec.name = std::string(datasets::to_string(op));
  for (const datasets::DataCenter& dc : datasets::datacenters_of(op)) {
    spec.replicas.push_back(dc.location);
  }
  spec.write_quorum = std::max<std::size_t>(
      1, std::min(quorum, spec.replicas.size()));
  return spec;
}

const core::World& light_world() {
  static const core::World world = [] {
    core::WorldConfig cfg;
    cfg.submarine.total_cables = 150;
    cfg.submarine.target_landing_points = 350;
    cfg.submarine.cables_without_length = 5;
    cfg.intertubes.total_links = 120;
    cfg.intertubes.target_nodes = 70;
    cfg.intertubes.short_links = 55;
    cfg.build_itu = false;
    cfg.build_routers = false;
    cfg.build_population = false;
    cfg.dns.instance_count = 120;
    cfg.ixps.count = 50;
    return core::World::generate(cfg);
  }();
  return world;
}

// The request matrix of ReportParity (three models, traffic off / gravity /
// sampled pairs, two seeds) on both engines: the bundles the CLI and the
// server run report what the frozen observers report.
TEST(ReportObserverParity, ReportBundlesMatchFrozenObservers) {
  const core::World& world = light_world();
  const topo::InfrastructureNetwork& net = world.submarine();
  const char* models[] = {R"("model":"s1")", R"("model":"s2")",
                          R"("model":"uniform","p":0.3)"};
  const char* traffics[] = {"", R"(,"traffic":true)", R"(,"demand_pairs":64)"};
  const char* engines[] = {R"(,"engine":"auto")", R"(,"engine":"scalar")"};
  for (const char* model : models) {
    for (const char* traffic : traffics) {
      for (const char* engine : engines) {
        for (const std::uint64_t seed : {3u, 11u}) {
          const std::string line = std::string("{") + model +
                                   R"(,"trials":40,"seed":)" +
                                   std::to_string(seed) + traffic + engine +
                                   "}";
          SCOPED_TRACE(line);
          server::ScenarioRequest req;
          server::parse_request(line, req);
          const auto failure_model = core::make_model(req);
          core::ReportBundle bundle(net, world.dns_roots(), *failure_model,
                                    req, 2);
          bundle.run(req.trials, req.seed);

          reference::AvailabilityObserver google(
              net, datacenter_service(datasets::DataCenterOperator::kGoogle,
                                      req.quorum));
          reference::AvailabilityObserver facebook(
              net, datacenter_service(datasets::DataCenterOperator::kFacebook,
                                      req.quorum));
          reference::DnsResolutionObserver dns(net, world.dns_roots(),
                                               req.dns_threshold_pct);
          reference::CountryIsolationObserver isolation(
              net, core::kReportCountries);
          reference::ReportObservers fan;
          fan.add(google);
          fan.add(facebook);
          fan.add(dns);
          fan.add(isolation);
          sim::TrialPipeline frozen(bundle.simulator, *failure_model);
          frozen.add_observer(fan);
          frozen.run(req.trials, req.seed, 2);

          expect_sweep_eq(bundle.google.result(), google.result());
          expect_sweep_eq(bundle.facebook.result(), facebook.result());
          expect_dns_eq(bundle.dns.result(), dns.result());
          expect_isolation_eq(bundle.isolation.results(), isolation.results());
        }
      }
    }
  }
}

}  // namespace
}  // namespace solarnet
