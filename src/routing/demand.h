// Inter-region traffic demand: a gravity model over the network's landing
// points. Each continent contributes gateway nodes (its best-connected
// landing stations); demand between two gateways is proportional to the
// product of their gateway weights with a mild distance deterrence. This
// gives the traffic engine a realistic offered load without needing any
// proprietary traffic matrix.
#pragma once

#include <vector>

#include "topology/network.h"

namespace solarnet::routing {

struct TrafficDemand {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  double gbps = 0.0;
};

// Gateways per continent (the most cable-rich landing points).
inline constexpr std::size_t kGatewaysPerContinent = 6;
// Total offered inter-gateway load.
inline constexpr double kOfferedTbps = 400.0;

// Builds the gravity demand matrix, volumes falling with the square root
// of great-circle distance. Deterministic (no RNG): gateways are chosen by
// descending cable degree (ties by node id), so the matrix is invariant
// under node-id permutations whenever degrees are distinct.
std::vector<TrafficDemand> gravity_demands(
    const topo::InfrastructureNetwork& net);

// Stress-scale demand matrix: `pairs` demand entries between cable-bearing
// nodes, each endpoint drawn with probability proportional to its cable
// degree (so the matrix concentrates on hubs, like the gravity model) and
// src != dst per entry, with the offered load split evenly so the entries
// sum to total_offered_tbps. Entries may repeat a node pair — the traffic
// engine routes every entry individually, which is the point: this is how
// the million-pair routing gate (ROADMAP item 5, bench/perf_routing)
// offers more demand rows than the network has distinct node pairs.
// Deterministic for a given (network, pairs, seed) via util::Rng(seed).
// Throws util::Error(kInvalidArgument) when total_offered_tbps is not
// finite/non-negative or when pairs > 0 and the network has fewer than two
// cable-bearing nodes.
std::vector<TrafficDemand> sampled_node_demands(
    const topo::InfrastructureNetwork& net, std::size_t pairs,
    double total_offered_tbps, std::uint64_t seed);

}  // namespace solarnet::routing
