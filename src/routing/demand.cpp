#include "routing/demand.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "geo/distance.h"
#include "geo/regions.h"
#include "util/rng.h"
#include "util/status.h"

namespace solarnet::routing {

namespace {
// Gravity deterrence exponent on great-circle distance.
constexpr double kDistanceExponent = 0.5;
}  // namespace

std::vector<TrafficDemand> gravity_demands(
    const topo::InfrastructureNetwork& net) {
  // 1. Pick gateways: per continent, the landing points with the most
  // cables.
  std::map<geo::Continent, std::vector<topo::NodeId>> by_continent;
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    if (net.cables_at(n).empty()) continue;
    by_continent[geo::continent_at(net.node(n).location)].push_back(n);
  }
  std::vector<topo::NodeId> gateways;
  std::vector<double> weight;  // cable degree as gateway mass
  for (auto& [continent, nodes] : by_continent) {
    std::sort(nodes.begin(), nodes.end(),
              [&](topo::NodeId a, topo::NodeId b) {
                const auto da = net.cables_at(a).size();
                const auto db = net.cables_at(b).size();
                return da != db ? da > db : a < b;
              });
    const std::size_t take =
        std::min(kGatewaysPerContinent, nodes.size());
    for (std::size_t i = 0; i < take; ++i) {
      gateways.push_back(nodes[i]);
      weight.push_back(static_cast<double>(net.cables_at(nodes[i]).size()));
    }
  }

  // 2. Gravity demands between all gateway pairs.
  std::vector<TrafficDemand> demands;
  double gravity_total = 0.0;
  for (std::size_t i = 0; i < gateways.size(); ++i) {
    for (std::size_t j = i + 1; j < gateways.size(); ++j) {
      const double d = geo::haversine_km(net.node(gateways[i]).location,
                                         net.node(gateways[j]).location);
      const double deterrence =
          std::pow(std::max(d, 100.0), -kDistanceExponent);
      const double g = weight[i] * weight[j] * deterrence;
      demands.push_back({gateways[i], gateways[j], g});
      gravity_total += g;
    }
  }
  // 3. Normalize to the offered load.
  if (gravity_total > 0.0) {
    const double scale =
        kOfferedTbps * 1000.0 / gravity_total;  // Tbps -> Gbps
    for (TrafficDemand& t : demands) t.gbps *= scale;
  }
  return demands;
}

std::vector<TrafficDemand> sampled_node_demands(
    const topo::InfrastructureNetwork& net, std::size_t pairs,
    double total_offered_tbps, std::uint64_t seed) {
  if (!std::isfinite(total_offered_tbps) || total_offered_tbps < 0.0) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "sampled_node_demands: offered load must be finite and "
                      ">= 0",
                      util::SourceContext{{}, 0, "total_offered_tbps"});
  }
  if (pairs == 0) return {};

  // Candidate endpoints: every cable-bearing node, weighted by degree.
  std::vector<topo::NodeId> nodes;
  std::vector<double> cumulative;  // running degree sum, for inversion
  double total_weight = 0.0;
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    const std::size_t degree = net.cables_at(n).size();
    if (degree == 0) continue;
    nodes.push_back(n);
    total_weight += static_cast<double>(degree);
    cumulative.push_back(total_weight);
  }
  if (nodes.size() < 2) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "sampled_node_demands: need >= 2 cable-bearing nodes",
                      util::SourceContext{{}, 0, "pairs"});
  }

  util::Rng rng(seed);
  const auto draw = [&]() -> topo::NodeId {
    const double u = rng.uniform() * total_weight;
    const std::size_t i = static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    return nodes[std::min(i, nodes.size() - 1)];
  };

  const double gbps_each = total_offered_tbps * 1000.0 / double(pairs);
  std::vector<TrafficDemand> demands;
  demands.reserve(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    const topo::NodeId src = draw();
    topo::NodeId dst = draw();
    while (dst == src) dst = draw();
    demands.push_back({src, dst, gbps_each});
  }
  return demands;
}

}  // namespace solarnet::routing
