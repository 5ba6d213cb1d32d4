// The repeater layout a network builds once per spacing and every
// FailureSimulator on it shares: bit-equal to the frozen per-simulator loop
// in bench/reference/repeater_layout.h on every shipped network, shared by
// simulators that differ only in threads, engine or rule, rebuilt after a
// mutation or copy, never kept alive by the cache, and built correctly
// when several threads race on a cold network.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "datasets/land.h"
#include "datasets/submarine.h"
#include "gic/efield.h"
#include "gic/failure_model.h"
#include "gic/storm.h"
#include "reference/repeater_layout.h"
#include "sim/monte_carlo.h"

namespace solarnet::sim {
namespace {

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}

const topo::InfrastructureNetwork& intertubes() {
  static const auto net = datasets::make_intertubes_network({});
  return net;
}

const topo::InfrastructureNetwork& itu() {
  static const auto net = datasets::make_itu_network({});
  return net;
}

std::vector<const topo::InfrastructureNetwork*> networks() {
  return {&submarine(), &intertubes(), &itu()};
}

TrialConfig at(double spacing_km) {
  return {.repeater_spacing_km = spacing_km};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Three cables: 1,500 km at 65N, 1,500 km on the equator, 100 km.
topo::InfrastructureNetwork small_network() {
  topo::InfrastructureNetwork net("layout");
  const auto a = net.add_node(
      {"A", {65.0, 0.0}, "NO", topo::NodeKind::kLandingPoint, true});
  const auto b = net.add_node(
      {"B", {55.0, 0.0}, "NO", topo::NodeKind::kLandingPoint, true});
  const auto c = net.add_node(
      {"C", {0.0, 0.0}, "", topo::NodeKind::kLandingPoint, true});
  const auto d = net.add_node(
      {"D", {0.0, 13.0}, "", topo::NodeKind::kLandingPoint, true});
  const auto e = net.add_node(
      {"E", {0.5, 13.0}, "", topo::NodeKind::kLandingPoint, true});
  net.add_cable({.name = "long-high", .segments = {{a, b, 1500.0}}});
  net.add_cable({.name = "long-low", .segments = {{c, d, 1500.0}}});
  net.add_cable({.name = "short", .segments = {{d, e, 100.0}}});
  return net;
}

void expect_equal_to_frozen(const topo::InfrastructureNetwork& net,
                            double spacing_km) {
  SCOPED_TRACE(net.name() + " at " + std::to_string(spacing_km) + " km");
  const FailureSimulator sim(net, at(spacing_km));
  const topo::RepeaterLayout& shared = *sim.layout();
  const reference::RepeaterLayout frozen =
      reference::repeater_layout(net, spacing_km);
  EXPECT_EQ(shared.cable_offset, frozen.cable_offset);
  EXPECT_EQ(sim.total_repeaters(), frozen.total_repeaters);
  EXPECT_EQ(sim.repeaterless_cables(), frozen.repeaterless_cables);
  ASSERT_EQ(shared.repeaters.size(), frozen.repeaters.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < frozen.repeaters.size(); ++i) {
    const gic::RepeaterContext& s = shared.repeaters[i];
    const gic::RepeaterContext& f = frozen.repeaters[i];
    if (!same_bits(s.location.lat_deg, f.location.lat_deg) ||
        !same_bits(s.location.lon_deg, f.location.lon_deg) ||
        !same_bits(s.cable_max_abs_lat_deg, f.cable_max_abs_lat_deg)) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u);
}

TEST(RepeaterLayout, EqualsFrozenBuildOnEveryNetworkAndSpacing) {
  double longest_segment = 0.0;
  for (const topo::InfrastructureNetwork* net : networks()) {
    for (const topo::Cable& cable : net->cables()) {
      for (const topo::CableSegment& s : cable.segments) {
        longest_segment = std::max(longest_segment, s.length_km);
      }
    }
  }
  for (const topo::InfrastructureNetwork* net : networks()) {
    for (const double spacing : {10.0, 50.0, 150.0, longest_segment + 1.0}) {
      expect_equal_to_frozen(*net, spacing);
    }
    // Past the longest segment no cable carries a repeater.
    const FailureSimulator bare(*net, at(longest_segment + 1.0));
    EXPECT_EQ(bare.total_repeaters(), 0u);
    EXPECT_EQ(bare.repeaterless_cables(), net->cable_count());
  }
}

TEST(RepeaterLayout, DeathTablesEqualFrozenBuild) {
  const gic::UniformFailureModel uniform(0.01);
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  const gic::PerRepeaterBandModel per_repeater("per-repeater S1",
                                               {1.0, 0.1, 0.01});
  const gic::FieldDrivenFailureModel carrington{
      gic::GeoelectricFieldModel(gic::carrington_1859())};
  const std::vector<const gic::RepeaterFailureModel*> models = {
      &uniform, &s1, &s2, &per_repeater, &carrington};
  for (const topo::InfrastructureNetwork* net : networks()) {
    for (const double spacing : {50.0, 150.0}) {
      const FailureSimulator sim(*net, at(spacing));
      const reference::RepeaterLayout frozen =
          reference::repeater_layout(*net, spacing);
      for (const gic::RepeaterFailureModel* model : models) {
        SCOPED_TRACE(net->name() + " at " + std::to_string(spacing) +
                     " km, " + model->name());
        const std::vector<double> live =
            sim.death_probability_table(*model).probability;
        const std::vector<double> want =
            reference::death_probabilities(frozen, *model);
        ASSERT_EQ(live.size(), want.size());
        std::size_t differing = 0;
        for (std::size_t c = 0; c < want.size(); ++c) {
          if (!same_bits(live[c], want[c])) ++differing;
        }
        EXPECT_EQ(differing, 0u);
      }
    }
  }
}

TEST(RepeaterLayoutSharing, ThreadsEngineAndRuleShareOneLayout) {
  const topo::InfrastructureNetwork net = small_network();
  const FailureSimulator a(net, {.threads = 1});
  const FailureSimulator b(
      net, {.threads = 4, .engine = TrialEngine::kScalar});
  const FailureSimulator c(net, {.rule = CableDeathRule::kFractionFails,
                                 .death_fraction = 0.25});
  EXPECT_EQ(a.layout(), b.layout());
  EXPECT_EQ(a.layout(), c.layout());
  // The three simulators own it; the cache only watches it.
  EXPECT_EQ(a.layout().use_count(), 3);
  EXPECT_EQ(net.repeater_layout_cache_size(), 1u);
  EXPECT_EQ(a.total_repeaters(), 20u);
}

TEST(RepeaterLayoutSharing, OtherSpacingOrNetworkGetsItsOwnLayout) {
  const topo::InfrastructureNetwork net = small_network();
  const topo::InfrastructureNetwork twin = small_network();
  const FailureSimulator wide(net, at(150.0));
  const FailureSimulator tight(net, at(50.0));
  const FailureSimulator other(twin, at(150.0));
  EXPECT_NE(wide.layout(), tight.layout());
  EXPECT_NE(wide.layout(), other.layout());
  EXPECT_EQ(wide.total_repeaters(), 20u);
  EXPECT_EQ(tight.total_repeaters(), 62u);
  EXPECT_EQ(other.total_repeaters(), 20u);
  EXPECT_EQ(net.repeater_layout_cache_size(), 2u);
}

TEST(RepeaterLayoutSharing, MutationAndCopiesGetAFreshLayout) {
  topo::InfrastructureNetwork net = small_network();
  const FailureSimulator before(net, {});
  const std::shared_ptr<const topo::RepeaterLayout> old_layout =
      before.layout();

  const topo::InfrastructureNetwork copy = net;
  const topo::InfrastructureNetwork clone = net.clone_with_extra_cables("+");
  const FailureSimulator on_copy(copy, {});
  const FailureSimulator on_clone(clone, {});
  EXPECT_NE(on_copy.layout(), old_layout);
  EXPECT_NE(on_clone.layout(), old_layout);
  EXPECT_EQ(on_copy.layout()->cable_offset, old_layout->cable_offset);
  EXPECT_EQ(on_clone.layout()->cable_offset, old_layout->cable_offset);

  const auto a = *net.find_node("A");
  const auto c = *net.find_node("C");
  net.add_cable({.name = "new", .segments = {{a, c, 3000.0}}});
  const FailureSimulator after(net, {});
  EXPECT_NE(after.layout(), old_layout);
  EXPECT_EQ(after.layout()->cable_offset.size(), net.cable_count() + 1);
  EXPECT_EQ(after.total_repeaters(), 20u + 20u);
  // The simulator built before the mutation keeps its own layout.
  EXPECT_EQ(before.layout(), old_layout);
  EXPECT_EQ(before.total_repeaters(), 20u);
  EXPECT_EQ(old_layout->cable_offset.size(), 4u);
}

TEST(RepeaterLayoutLifetime, NoLayoutOutlivesItsLastSimulator) {
  const topo::InfrastructureNetwork net = small_network();
  constexpr std::size_t kSpacings = 100;
  std::vector<std::weak_ptr<const topo::RepeaterLayout>> layouts;
  {
    std::vector<FailureSimulator> sims;
    sims.reserve(kSpacings);
    for (std::size_t i = 0; i < kSpacings; ++i) {
      sims.emplace_back(net, at(10.0 + 7.5 * static_cast<double>(i)));
      layouts.push_back(sims.back().layout());
    }
    EXPECT_EQ(net.repeater_layout_cache_size(), kSpacings);
  }
  for (const auto& layout : layouts) EXPECT_TRUE(layout.expired());
  // Expired entries stay until the next insert prunes them.
  EXPECT_EQ(net.repeater_layout_cache_size(), kSpacings);
  const FailureSimulator next(net, at(2000.0));
  EXPECT_EQ(net.repeater_layout_cache_size(), 1u);
}

TEST(LayoutConcurrency,
     EightThreadsBuildSimulatorsAtTwoSpacingsOnOneColdNetwork) {
  // A fresh network: every thread starts on a cold layout cache, and half
  // of them read the CSR and fingerprint under the cache mutex meanwhile.
  const topo::InfrastructureNetwork net = datasets::make_submarine_network({});
  constexpr std::size_t kThreads = 8;
  constexpr double kSpacings[] = {50.0, 150.0};
  std::vector<std::optional<FailureSimulator>> sims(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      sims[t].emplace(net, at(kSpacings[t % 2]));
      if (t % 4 < 2) {
        EXPECT_EQ(net.csr().vertex_count(), net.node_count());
        EXPECT_NE(net.content_fingerprint(), 0u);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE(std::to_string(kSpacings[s]) + " km");
    const reference::RepeaterLayout frozen =
        reference::repeater_layout(net, kSpacings[s]);
    for (std::size_t t = s; t < kThreads; t += 2) {
      // Whichever copy was inserted first is the one every thread adopts.
      EXPECT_EQ(sims[t]->layout(), sims[s]->layout()) << "thread " << t;
      const topo::RepeaterLayout& layout = *sims[t]->layout();
      EXPECT_EQ(layout.cable_offset, frozen.cable_offset);
      ASSERT_EQ(layout.repeaters.size(), frozen.repeaters.size());
      for (std::size_t i = 0; i < frozen.repeaters.size(); ++i) {
        ASSERT_TRUE(same_bits(layout.repeaters[i].location.lat_deg,
                              frozen.repeaters[i].location.lat_deg) &&
                    same_bits(layout.repeaters[i].location.lon_deg,
                              frozen.repeaters[i].location.lon_deg) &&
                    same_bits(layout.repeaters[i].cable_max_abs_lat_deg,
                              frozen.repeaters[i].cable_max_abs_lat_deg))
            << "thread " << t << ", repeater " << i;
      }
    }
  }
  EXPECT_EQ(net.repeater_layout_cache_size(), 2u);
}

}  // namespace
}  // namespace solarnet::sim
