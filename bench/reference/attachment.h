// Frozen reference attachment rule: verbatim copies of the continent client
// anchors and the linear nearest-landing-station scan that
// services/availability.cpp ran before the network's attachment index,
// plus the one-shot DNS resolution evaluation built on that scan. The scan
// computes the haversine distance from the point to every cable-bearing
// node in ascending id order; it shares nothing with the indexed search
// except haversine_km. The attachment exactness tests compare
// services::nearest_connected_node against it, perf_graph's legacy
// availability path resolves through it, and perf_pipeline times its old
// report path on the one-shot DNS evaluation, so that gate's baseline is a
// fixed old path that later work on src/ cannot speed up. Do not route
// these through services/availability.h or the attachment index; they are
// deliberately frozen.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/dns_resolution.h"
#include "datasets/infra_points.h"
#include "geo/distance.h"
#include "geo/regions.h"
#include "graph/components.h"
#include "graph_kernels.h"
#include "services/availability.h"
#include "topology/network.h"

namespace solarnet::reference {

// Continent "client anchors": a representative populous coastal location
// per continent, mapped to the nearest landing point.
inline const std::vector<std::pair<geo::Continent, geo::GeoPoint>>&
continent_anchors() {
  static const std::vector<std::pair<geo::Continent, geo::GeoPoint>> anchors =
      {
          {geo::Continent::kNorthAmerica, {40.7, -74.0}},   // New York
          {geo::Continent::kSouthAmerica, {-23.5, -46.6}},  // Sao Paulo
          {geo::Continent::kEurope, {50.1, 8.7}},           // Frankfurt
          {geo::Continent::kAfrica, {6.5, 3.4}},            // Lagos
          {geo::Continent::kAsia, {1.35, 103.8}},           // Singapore
          {geo::Continent::kOceania, {-33.9, 151.2}},       // Sydney
      };
  return anchors;
}

// Clients and replicas reach the submarine plant through terrestrial
// networks, so they attach to the best-connected landing station in their
// area, not literally the closest beach: among nodes within the attachment
// radius, prefer the highest cable degree (nearest wins ties); with no
// node in range, fall back to the globally nearest.
inline topo::NodeId nearest_connected_node(
    const topo::InfrastructureNetwork& net, const geo::GeoPoint& p) {
  constexpr double kAttachmentRadiusKm = 1500.0;
  topo::NodeId best_in_range = topo::kInvalidNode;
  std::size_t best_degree = 0;
  double best_in_range_d = std::numeric_limits<double>::infinity();
  topo::NodeId nearest = topo::kInvalidNode;
  double nearest_d = std::numeric_limits<double>::infinity();
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    const std::size_t degree = net.cables_at(n).size();
    if (degree == 0) continue;
    const double d = geo::haversine_km(p, net.node(n).location);
    if (d < nearest_d) {
      nearest_d = d;
      nearest = n;
    }
    if (d <= kAttachmentRadiusKm &&
        (degree > best_degree ||
         (degree == best_degree && d < best_in_range_d))) {
      best_degree = degree;
      best_in_range_d = d;
      best_in_range = n;
    }
  }
  return best_in_range != topo::kInvalidNode ? best_in_range : nearest;
}

// The old one-shot analysis::evaluate_dns_resolution: each populated root
// letter, in letter order, is a quorum-1 service whose instances and the
// six continent anchors are attached through the scan above on every call
// (1,154 scans on the default root set); components come from the frozen
// Graph-tier kernel. A landing node that lost every cable is its own
// island, so parties attached to it still reach each other.
inline analysis::DnsResolutionReport evaluate_dns_resolution(
    const topo::InfrastructureNetwork& net, const std::vector<bool>& cable_dead,
    const std::vector<datasets::DnsRootInstance>& roots) {
  constexpr std::uint32_t kIslandBase = 0x80000000u;
  const graph::ComponentResult cc =
      reference::connected_components(net.graph(),
                                      net.mask_for_failures(cable_dead));
  const util::Bitset dead = util::Bitset::from_bools(cable_dead);
  auto component_of = [&](const geo::GeoPoint& p) -> std::uint32_t {
    const topo::NodeId n = nearest_connected_node(net, p);
    if (n == topo::kInvalidNode) return graph::ComponentResult::kNoComponent;
    if (net.node_unreachable(n, dead)) return kIslandBase + n;
    return cc.component[n];
  };

  std::array<std::vector<geo::GeoPoint>, 13> instances;
  for (const datasets::DnsRootInstance& r : roots) {
    instances.at(static_cast<std::size_t>(r.root_letter - 'a'))
        .push_back(r.location);
  }

  analysis::DnsResolutionReport report;
  for (const std::vector<geo::GeoPoint>& letter : instances) {
    if (letter.empty()) continue;
    if (report.per_continent.empty()) {
      for (const auto& [continent, anchor] : continent_anchors()) {
        report.per_continent.push_back({continent, false, 0});
      }
    }
    std::vector<std::uint32_t> replica_components;
    for (const geo::GeoPoint& r : letter) {
      replica_components.push_back(component_of(r));
    }
    for (std::size_t i = 0; i < continent_anchors().size(); ++i) {
      const std::uint32_t client = component_of(continent_anchors()[i].second);
      if (client == graph::ComponentResult::kNoComponent) continue;
      bool reachable = false;
      for (std::uint32_t rc : replica_components) reachable |= rc == client;
      if (!reachable) continue;
      report.per_continent[i].any_root_reachable = true;
      ++report.per_continent[i].letters_reachable;
    }
  }

  for (const auto& [continent, share] :
       services::continent_population_shares()) {
    for (const auto& pc : report.per_continent) {
      if (pc.continent != continent) continue;
      if (pc.any_root_reachable) report.resolution_availability += share;
      report.mean_letters_reachable +=
          share * static_cast<double>(pc.letters_reachable);
    }
  }
  return report;
}

}  // namespace solarnet::reference
