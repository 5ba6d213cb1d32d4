#include "sim/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "gic/failure_model.h"
#include "reference/trial_loops.h"
#include "services/availability.h"
#include "util/checkpoint.h"
#include "util/rng.h"
#include "util/status.h"

namespace solarnet::sim {
namespace {

void expect_stats_eq(const util::RunningStats& a, const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sample_stddev(), b.sample_stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

// NY (US) -- Bude (GB) -- Singapore (SG) line plus a Lisbon (PT) spur:
// every cable is international and long enough to carry repeaters at the
// default 150 km spacing.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : net_("pipeline") {
    ny_ = add_node("NY", {40.7, -74.0}, "US");
    bude_ = add_node("Bude", {50.8, -4.5}, "GB");
    sg_ = add_node("Singapore", {1.35, 103.8}, "SG");
    lisbon_ = add_node("Lisbon", {38.7, -9.1}, "PT");
    atl_ = add_cable("atl", ny_, bude_, 6000.0);
    asia_ = add_cable("asia", bude_, sg_, 11000.0);
    spur_ = add_cable("spur", ny_, lisbon_, 5500.0);
  }

  topo::NodeId add_node(const char* name, geo::GeoPoint p, const char* cc) {
    return net_.add_node({name, p, cc, topo::NodeKind::kLandingPoint, true});
  }
  topo::CableId add_cable(const char* name, topo::NodeId a, topo::NodeId b,
                          double km) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, km}};
    return net_.add_cable(std::move(c));
  }

  services::ServiceSpec two_replica_service() const {
    services::ServiceSpec spec;
    spec.name = "svc";
    spec.replicas = {{40.7, -74.0}, {1.35, 103.8}};  // NY + Singapore
    spec.write_quorum = 2;
    return spec;
  }
  std::vector<datasets::DnsRootInstance> two_letters() const {
    return {
        {'a', {40.7, -74.0}, "US", geo::Continent::kNorthAmerica},
        {'b', {1.35, 103.8}, "SG", geo::Continent::kAsia},
    };
  }

  topo::InfrastructureNetwork net_;
  topo::NodeId ny_{}, bude_{}, sg_{}, lisbon_{};
  topo::CableId atl_{}, asia_{}, spur_{};
};

// Random multi-cable networks for property tests (the sweep_test idiom),
// with country codes cycled over a small set so the country observer has
// international cables to watch.
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

// The three *Matches* tests compare against the frozen pre-pipeline loops of
// bench/reference/trial_loops.h: run_trials and availability_sweep are now
// pipeline passes themselves, so they are no longer independent references.
TEST_F(PipelineTest, ConnectivityObserverMatchesRunTrialsBitForBit) {
  const gic::UniformFailureModel model(0.3);
  TrialConfig cfg;
  cfg.threads = 1;
  const FailureSimulator simulator(net_, cfg);
  const AggregateResult frozen =
      reference::run_trials(simulator, model, 150, 9);

  TrialPipeline pipeline(simulator, model);
  ConnectivityObserver connectivity;
  pipeline.add_observer(connectivity);
  pipeline.run(150, 9);

  EXPECT_EQ(connectivity.result().trials, frozen.trials);
  expect_stats_eq(connectivity.result().cables_failed_pct,
                  frozen.cables_failed_pct);
  expect_stats_eq(connectivity.result().nodes_unreachable_pct,
                  frozen.nodes_unreachable_pct);
}

TEST_F(PipelineTest, SupportsFractionFailsRule) {
  // The pipeline falls back to direct model sampling under kFractionFails
  // (no death-probability table exists for that rule) and still matches
  // the frozen run_trials loop draw for draw.
  const gic::UniformFailureModel model(0.4);
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  cfg.death_fraction = 0.3;
  cfg.threads = 1;
  const FailureSimulator simulator(net_, cfg);
  const AggregateResult frozen =
      reference::run_trials(simulator, model, 100, 21);

  TrialPipeline pipeline(simulator, model);
  ConnectivityObserver connectivity;
  pipeline.add_observer(connectivity);
  pipeline.run(100, 21);

  expect_stats_eq(connectivity.result().cables_failed_pct,
                  frozen.cables_failed_pct);
  expect_stats_eq(connectivity.result().nodes_unreachable_pct,
                  frozen.nodes_unreachable_pct);
}

TEST_F(PipelineTest, AvailabilityObserverMatchesAvailabilitySweep) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  const FailureSimulator simulator(net_, {});
  const services::AvailabilitySweep frozen = reference::availability_sweep(
      simulator, model, two_replica_service(), 100, 11, 1);

  TrialPipeline pipeline(simulator, model);
  services::AvailabilityObserver availability(net_, two_replica_service());
  pipeline.add_observer(availability);
  pipeline.run(100, 11, 1);

  EXPECT_EQ(availability.result().service, frozen.service);
  EXPECT_EQ(availability.result().draws, frozen.draws);
  expect_stats_eq(availability.result().read_availability,
                  frozen.read_availability);
  expect_stats_eq(availability.result().write_availability,
                  frozen.write_availability);
}

TEST_F(PipelineTest, ZeroTrialsYieldsEmptyResults) {
  const gic::UniformFailureModel model(0.5);
  const FailureSimulator simulator(net_, {});
  TrialPipeline pipeline(simulator, model);
  ConnectivityObserver connectivity;
  services::AvailabilityObserver availability(net_, two_replica_service());
  pipeline.add_observer(connectivity);
  pipeline.add_observer(availability);
  pipeline.run(0, 7);
  EXPECT_EQ(connectivity.result().trials, 0u);
  EXPECT_EQ(connectivity.result().cables_failed_pct.mean(), 0.0);
  EXPECT_EQ(availability.result().draws, 0u);
}

TEST_F(PipelineTest, CountryIsolationEndpointsAreExact) {
  const FailureSimulator simulator(net_, {});
  {
    // p = 1: every repeater-bearing cable dies in every trial.
    const gic::UniformFailureModel certain(1.0);
    TrialPipeline pipeline(simulator, certain);
    analysis::CountryIsolationObserver isolation(net_, {"US", "GB"});
    pipeline.add_observer(isolation);
    pipeline.run(20, 3);
    for (const analysis::CountryIsolationResult& r : isolation.results()) {
      EXPECT_EQ(r.trials, 20u);
      EXPECT_EQ(r.isolated_trials, 20u);
      EXPECT_EQ(r.surviving_cables.mean(), 0.0);
    }
  }
  {
    // p = 0: nothing ever dies.
    const gic::UniformFailureModel never(0.0);
    TrialPipeline pipeline(simulator, never);
    analysis::CountryIsolationObserver isolation(net_, {"US"});
    pipeline.add_observer(isolation);
    pipeline.run(20, 3);
    const analysis::CountryIsolationResult& us = isolation.results()[0];
    EXPECT_EQ(us.isolated_trials, 0u);
    EXPECT_EQ(us.surviving_cables.mean(),
              static_cast<double>(us.international_cable_count));
  }
}

TEST_F(PipelineTest, CountryIsolationConvergesToAnalytic) {
  const gic::UniformFailureModel model(0.5);
  const FailureSimulator simulator(net_, {});
  TrialPipeline pipeline(simulator, model);
  analysis::CountryIsolationObserver isolation(net_, {"US"});
  pipeline.add_observer(isolation);
  constexpr std::size_t kTrials = 2048;
  pipeline.run(kTrials, 17);

  const analysis::CountryIsolationResult& us = isolation.results()[0];
  const auto cables = analysis::international_cables(net_, "US");
  ASSERT_EQ(us.international_cable_count, cables.size());
  const double p_all = analysis::all_fail_probability(simulator, model, cables);
  const double e_surv = analysis::expected_survivors(simulator, model, cables);
  const double se_iso =
      std::sqrt(p_all * (1.0 - p_all) / static_cast<double>(kTrials));
  EXPECT_NEAR(us.isolation_rate(), p_all, 4.0 * se_iso + 1e-9);
  EXPECT_NEAR(us.surviving_cables.mean(), e_surv,
              4.0 * us.surviving_cables.sample_stddev() /
                      std::sqrt(static_cast<double>(kTrials)) +
                  1e-9);
}

// Property test: the full observer set produces bit-identical results for
// every thread count, over random networks and seeds.
TEST(PipelineProperty, ThreadCountBitIdentity) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  for (const std::uint64_t net_seed : {1u, 2u, 3u}) {
    util::Rng net_rng(net_seed);
    const auto net = random_network(net_rng, 40, 60);
    const FailureSimulator simulator(net, {});
    TrialPipeline pipeline(simulator, model);

    ConnectivityObserver connectivity;
    services::ServiceSpec spec;
    spec.name = "svc";
    spec.replicas = {net.node(0).location, net.node(1).location,
                     net.node(2).location};
    spec.write_quorum = 2;
    services::AvailabilityObserver availability(net, spec);
    analysis::CountryIsolationObserver isolation(net, {"US", "GB", "SG"});
    const std::vector<datasets::DnsRootInstance> roots = {
        {'a', net.node(0).location, "US", geo::Continent::kNorthAmerica},
        {'b', net.node(3).location, "GB", geo::Continent::kEurope},
    };
    analysis::DnsResolutionObserver dns(net, roots, 10.0);
    pipeline.add_observer(connectivity);
    pipeline.add_observer(availability);
    pipeline.add_observer(isolation);
    pipeline.add_observer(dns);

    constexpr std::size_t kTrials = 150;  // 5 chunks
    pipeline.run(kTrials, 1000 + net_seed, 1);
    const ConnectivityObserver::Result conn_ref = connectivity.result();
    const services::AvailabilitySweep avail_ref = availability.result();
    const std::vector<analysis::CountryIsolationResult> iso_ref =
        isolation.results();
    const analysis::DnsResolutionSweep dns_ref = dns.result();

    for (const std::size_t threads : {2u, 3u, 7u, 0u}) {
      pipeline.run(kTrials, 1000 + net_seed, threads);
      expect_stats_eq(connectivity.result().cables_failed_pct,
                      conn_ref.cables_failed_pct);
      expect_stats_eq(connectivity.result().nodes_unreachable_pct,
                      conn_ref.nodes_unreachable_pct);
      expect_stats_eq(connectivity.result().largest_component_pct,
                      conn_ref.largest_component_pct);
      expect_stats_eq(availability.result().read_availability,
                      avail_ref.read_availability);
      expect_stats_eq(availability.result().write_availability,
                      avail_ref.write_availability);
      ASSERT_EQ(isolation.results().size(), iso_ref.size());
      for (std::size_t i = 0; i < iso_ref.size(); ++i) {
        EXPECT_EQ(isolation.results()[i].isolated_trials,
                  iso_ref[i].isolated_trials);
        expect_stats_eq(isolation.results()[i].surviving_cables,
                        iso_ref[i].surviving_cables);
      }
      expect_stats_eq(dns.result().resolution_availability,
                      dns_ref.resolution_availability);
      expect_stats_eq(dns.result().mean_letters_reachable,
                      dns_ref.mean_letters_reachable);
      EXPECT_EQ(dns.result().degraded_trials, dns_ref.degraded_trials);
      EXPECT_EQ(dns.result().heavy_loss_trials, dns_ref.heavy_loss_trials);
      EXPECT_EQ(dns.result().joint_trials, dns_ref.joint_trials);
    }
  }
}

// Records (trial, failure-set fingerprint) pairs per chunk slot — used to
// assert every observer on a pipeline sees the same per-trial failure sets.
class FingerprintObserver final : public TrialObserver {
 public:
  bool needs_components() const override { return false; }
  void begin_run(const TrialPipeline&, std::size_t, std::size_t chunks) override {
    chunks_.assign(chunks, {});
    recorded_.clear();
  }
  void observe(const TrialView& view, std::size_t, std::size_t chunk) override {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t c = 0; c < view.cable_dead->size(); ++c) {
      h = (h ^ static_cast<std::uint64_t>((*view.cable_dead)[c])) *
          1099511628211ull;
    }
    chunks_[chunk].emplace_back(view.trial, h);
  }
  void end_run() override {
    for (const auto& chunk : chunks_) {
      recorded_.insert(recorded_.end(), chunk.begin(), chunk.end());
    }
    chunks_.clear();
  }
  const std::vector<std::pair<std::size_t, std::uint64_t>>& recorded() const {
    return recorded_;
  }

 private:
  std::vector<std::vector<std::pair<std::size_t, std::uint64_t>>> chunks_;
  std::vector<std::pair<std::size_t, std::uint64_t>> recorded_;
};

// The joint-metric smoke test: two independent recorders registered on the
// same pipeline observe identical per-trial failure sets (the whole point
// of the shared draw), every trial is seen exactly once in order, and the
// DNS joint counter is consistent with its marginals.
TEST_F(PipelineTest, AllObserversSeeTheSameFailureSets) {
  const auto model = gic::LatitudeBandFailureModel::s2();
  const FailureSimulator simulator(net_, {});
  TrialPipeline pipeline(simulator, model);
  FingerprintObserver first;
  FingerprintObserver second;
  analysis::DnsResolutionObserver dns(net_, two_letters(), 10.0);
  pipeline.add_observer(first);
  pipeline.add_observer(dns);  // sandwiched between the recorders
  pipeline.add_observer(second);
  constexpr std::size_t kTrials = 100;
  pipeline.run(kTrials, 5);

  ASSERT_EQ(first.recorded().size(), kTrials);
  EXPECT_EQ(first.recorded(), second.recorded());
  for (std::size_t t = 0; t < kTrials; ++t) {
    EXPECT_EQ(first.recorded()[t].first, t);
  }
  EXPECT_EQ(dns.result().trials, kTrials);
  EXPECT_LE(dns.result().joint_trials, dns.result().degraded_trials);
  EXPECT_LE(dns.result().joint_trials, dns.result().heavy_loss_trials);
}

TEST_F(PipelineTest, FullResolutionIsNotDegraded) {
  // With p = 0 nothing ever fails, every continent resolves, and no trial
  // may count as degraded — even though the population-share weights sum
  // to 1 - O(1e-16) in floating point.
  const gic::UniformFailureModel never(0.0);
  const FailureSimulator simulator(net_, {});
  TrialPipeline pipeline(simulator, never);
  analysis::DnsResolutionObserver dns(net_, two_letters(), 10.0);
  pipeline.add_observer(dns);
  pipeline.run(30, 11);
  EXPECT_EQ(dns.result().degraded_trials, 0u);
  EXPECT_EQ(dns.result().joint_trials, 0u);
  EXPECT_NEAR(dns.result().resolution_availability.mean(), 1.0, 1e-12);
  EXPECT_FALSE(analysis::resolution_degraded(
      dns.result().resolution_availability.mean()));
}

// Merge correctness: which worker claims which chunk must not matter.
// Drive run_trial manually under two different worker assignments and
// check the reduced results match the parallel run exactly.
TEST_F(PipelineTest, ChunkMergeIsWorkerAssignmentIndependent) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  const FailureSimulator simulator(net_, {});
  TrialPipeline pipeline(simulator, model);
  ConnectivityObserver connectivity;
  services::AvailabilityObserver availability(net_, two_replica_service());
  pipeline.add_observer(connectivity);
  pipeline.add_observer(availability);

  constexpr std::size_t kTrials = 150;
  constexpr std::uint64_t kSeed = 23;
  pipeline.run(kTrials, kSeed);
  const ConnectivityObserver::Result conn_ref = connectivity.result();
  const services::AvailabilitySweep avail_ref = availability.result();

  const std::size_t chunks = chunk_count(kTrials);
  const util::Rng base(kSeed);
  // Scrambled assignment: chunk c handled by worker (c * 2 + 1) % 3, chunks
  // visited in descending order.
  connectivity.begin_run(pipeline, 3, chunks);
  availability.begin_run(pipeline, 3, chunks);
  std::vector<PipelineScratch> scratch(3);
  for (std::size_t chunk = chunks; chunk-- > 0;) {
    const std::size_t worker = (chunk * 2 + 1) % 3;
    const std::size_t begin = chunk * kTrialChunk;
    const std::size_t end =
        std::min(begin + kTrialChunk, kTrials);
    for (std::size_t t = begin; t < end; ++t) {
      pipeline.run_trial(t, base, scratch[worker], worker, chunk);
    }
  }
  connectivity.end_run();
  availability.end_run();

  expect_stats_eq(connectivity.result().cables_failed_pct,
                  conn_ref.cables_failed_pct);
  expect_stats_eq(connectivity.result().nodes_unreachable_pct,
                  conn_ref.nodes_unreachable_pct);
  expect_stats_eq(connectivity.result().largest_component_pct,
                  conn_ref.largest_component_pct);
  expect_stats_eq(availability.result().read_availability,
                  avail_ref.read_availability);
  expect_stats_eq(availability.result().write_availability,
                  avail_ref.write_availability);
}

TEST_F(PipelineTest, ChunkCheckpointAfterEndRunThrowsStructuredError) {
  // end_run() releases the per-chunk accumulator slots; a later
  // save_chunk/load_chunk is a lifecycle violation and must surface as a
  // structured util::Error naming the observer and the valid window — not
  // as std::out_of_range from an .at() on the cleared vector.
  const gic::UniformFailureModel model(0.3);
  const FailureSimulator simulator(net_, {});
  TrialPipeline pipeline(simulator, model);
  ConnectivityObserver connectivity;
  services::AvailabilityObserver availability(net_, two_replica_service());
  analysis::DnsResolutionObserver dns(net_, two_letters());
  analysis::CountryIsolationObserver country(net_, {"US", "PT"});
  pipeline.add_observer(connectivity);
  pipeline.add_observer(availability);
  pipeline.add_observer(dns);
  pipeline.add_observer(country);
  pipeline.run(40, 3);

  util::ByteWriter sink;
  try {
    connectivity.save_chunk(0, sink);
    FAIL() << "save_chunk after end_run was accepted";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidArgument);
    const std::string what = e.what();
    EXPECT_NE(what.find("ConnectivityObserver"), std::string::npos) << what;
    EXPECT_NE(what.find("begin_run"), std::string::npos) << what;
  }
  EXPECT_THROW(availability.save_chunk(0, sink), util::Error);
  EXPECT_THROW(dns.save_chunk(0, sink), util::Error);
  EXPECT_THROW(country.save_chunk(0, sink), util::Error);

  util::ByteReader reader("");
  EXPECT_THROW(connectivity.load_chunk(0, reader), util::Error);
  EXPECT_THROW(availability.load_chunk(0, reader), util::Error);
  EXPECT_THROW(dns.load_chunk(0, reader), util::Error);
  EXPECT_THROW(country.load_chunk(0, reader), util::Error);
}

TEST_F(PipelineTest, ChunkCheckpointRejectsOutOfRangeChunk) {
  const gic::UniformFailureModel model(0.3);
  const FailureSimulator simulator(net_, {});
  TrialPipeline pipeline(simulator, model);
  ConnectivityObserver connectivity;
  connectivity.begin_run(pipeline, 1, 3);

  // In-range chunks serialize fine (even before any trial was observed)...
  util::ByteWriter ok;
  EXPECT_NO_THROW(connectivity.save_chunk(2, ok));
  // ...but an index beyond the slots allocated by begin_run is rejected
  // with the offending chunk in the message.
  util::ByteWriter bad;
  try {
    connectivity.save_chunk(3, bad);
    FAIL() << "out-of-range chunk was accepted";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidArgument);
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk 3"), std::string::npos) << what;
  }
  connectivity.end_run();
}

}  // namespace
}  // namespace solarnet::sim
