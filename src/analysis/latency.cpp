#include "analysis/latency.h"

#include <stdexcept>

#include "graph/shortest_paths.h"

namespace solarnet::analysis {

RouteLatency route_latency(const topo::InfrastructureNetwork& net,
                           const std::string& from, const std::string& to,
                           const std::vector<bool>& cable_dead) {
  const auto a = net.find_node(from);
  const auto b = net.find_node(to);
  if (!a || !b) {
    throw std::invalid_argument("route_latency: unknown node '" +
                                (a ? to : from) + "'");
  }
  const graph::AliveMask mask =
      cable_dead.empty()
          ? graph::AliveMask::all_alive(net.graph())
          : net.mask_for_failures(cable_dead);
  const graph::ShortestPaths sp = graph::dijkstra(net.graph(), mask, *a);

  RouteLatency out;
  if (sp.distance[*b] == graph::kUnreachable) return out;
  out.reachable = true;
  out.path_km = sp.distance[*b];
  out.one_way_ms = out.path_km * kFiberLatencyMsPerKm;
  out.rtt_ms = 2.0 * out.one_way_ms;
  return out;
}

}  // namespace solarnet::analysis
