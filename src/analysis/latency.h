// Path latency over the cable plant. §5.1 frames the core trade-off:
// Arctic routes cut latency but sit in the highest-GIC band, while
// low-latitude detours are safer but slower. This module turns cable
// kilometres into one-way light latency and measures route latency between
// named landing points, before or after a storm.
#pragma once

#include <optional>
#include <string>

#include "topology/network.h"

namespace solarnet::analysis {

// Light in fiber: ~204,000 km/s => ~4.9 us per km, one way.
inline constexpr double kFiberLatencyMsPerKm = 0.0049;

struct RouteLatency {
  bool reachable = false;
  double path_km = 0.0;
  double one_way_ms = 0.0;
  double rtt_ms = 0.0;
};

// Shortest-path latency between two named nodes over the surviving
// subgraph (all cables alive when cable_dead is empty). Throws
// std::invalid_argument for unknown node names.
RouteLatency route_latency(const topo::InfrastructureNetwork& net,
                           const std::string& from, const std::string& to,
                           const std::vector<bool>& cable_dead = {});

}  // namespace solarnet::analysis
