#include "powergrid/grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geo/distance.h"

namespace solarnet::powergrid {

namespace {
// GIC-vulnerability logistic on the local geoelectric field: fields
// around kFieldAtHalfVPerKm give a 50% per-transformer failure rate.
constexpr double kFieldAtHalfVPerKm = 12.0;
constexpr double kTransformerSteepness = 2.0;
// Grid-level collapse threshold: losing this fraction of HV transformers
// takes the region down (cascading separation).
constexpr double kBlackoutFraction = 0.20;
// Restoration: crews swap failed units from spares, but only
// kSpareFraction have spares — the rest wait on manufacturing (months,
// §5.5).
constexpr double kSpareFraction = 0.3;
constexpr double kDaysPerSpareSwap = 10.0;
constexpr double kManufacturingDays = 365.0;
}  // namespace

const std::vector<GridRegion>& grid_regions() {
  static const std::vector<GridRegion> regions = [] {
    std::vector<GridRegion> r;
    auto add = [&](const char* name, geo::GeoBox box, geo::GeoPoint centroid,
                   double gw, std::size_t transformers) {
      r.push_back({name, box, centroid, gw, transformers});
    };
    // More specific footprints come first (first-match wins, as in the
    // country registry). The three US interconnections §5.5 names
    // explicitly: ERCOT sits inside the Eastern box's longitude span, and
    // Hydro-Quebec/Canada West overlap the big interconnections' northern
    // edges.
    add("ERCOT (Texas)", {25.5, 36.5, -106.8, -93.5}, {31.0, -99.0}, 85.0,
        200);
    add("Hydro-Quebec", {45.0, 62.0, -79.5, -57.0}, {50.0, -72.0}, 40.0, 130);
    add("Canada West", {48.0, 62.0, -130.0, -90.0}, {53.0, -113.0}, 35.0,
        120);
    add("US Eastern Interconnection", {24.0, 50.0, -105.0, -66.0},
        {40.0, -80.0}, 700.0, 1200);
    add("US Western Interconnection", {24.0, 54.0, -125.0, -105.0},
        {40.0, -115.0}, 170.0, 500);
    add("UK National Grid", {49.5, 59.5, -8.5, 2.0}, {53.0, -1.5}, 60.0, 250);
    add("Nordic Grid", {54.5, 71.5, 4.0, 32.0}, {61.0, 15.0}, 70.0, 300);
    add("Continental Europe", {36.0, 55.0, -10.0, 30.0}, {48.0, 10.0}, 530.0,
        1500);
    add("Russia UES", {41.0, 70.0, 27.0, 140.0}, {56.0, 50.0}, 160.0, 600);
    add("China State Grid", {18.0, 54.0, 73.0, 135.0}, {33.0, 110.0}, 1200.0,
        2000);
    add("Japan (East/West)", {24.0, 46.0, 123.0, 146.0}, {36.0, 138.0},
        160.0, 400);
    add("India National Grid", {6.0, 36.0, 68.0, 98.0}, {22.0, 79.0}, 200.0,
        700);
    add("Australia NEM", {-44.0, -10.0, 113.0, 154.0}, {-30.0, 146.0}, 35.0,
        150);
    add("Brazil SIN", {-34.0, 5.5, -74.0, -34.0}, {-15.0, -48.0}, 90.0, 300);
    add("Southern Africa SAPP", {-35.0, -8.0, 11.0, 41.0}, {-27.0, 26.0},
        45.0, 180);
    return r;
  }();
  return regions;
}

std::size_t region_index_at(const geo::GeoPoint& p) {
  const auto& regions = grid_regions();
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (regions[i].footprint.contains(p)) return i;
  }
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const double d = geo::haversine_km(p, regions[i].centroid);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

std::vector<GridOutcome> evaluate_grid(
    const gic::GeoelectricFieldModel& field) {
  std::vector<GridOutcome> out;
  for (const GridRegion& region : grid_regions()) {
    GridOutcome o;
    o.region = region.name;
    o.field_v_per_km = field.field_v_per_km_land(region.centroid);
    const double x =
        std::log(std::max(1e-9, o.field_v_per_km) / kFieldAtHalfVPerKm);
    o.transformer_failure_fraction =
        1.0 / (1.0 + std::exp(-kTransformerSteepness * x));
    o.blackout = o.transformer_failure_fraction >= kBlackoutFraction;
    if (o.blackout) {
      const auto failed = o.transformer_failure_fraction *
                          static_cast<double>(region.hv_transformers);
      const double sparable = kSpareFraction * failed;
      const double unsparable = failed - sparable;
      // Re-energizing needs the failed fraction back under the blackout
      // threshold; spares go in first, the rest wait on manufacturing.
      const double need =
          failed -
          kBlackoutFraction * static_cast<double>(region.hv_transformers);
      if (need <= sparable) {
        // Spare-bound: crews swap in parallel; scale with how much of the
        // spare pool the region must consume.
        o.restoration_days = std::min(
            120.0,
            kDaysPerSpareSwap * 10.0 * need / std::max(1.0, sparable));
      } else {
        // Manufacturing-bound: months to years (§5.5's roadblock).
        o.restoration_days =
            kManufacturingDays *
            std::clamp(need / std::max(1.0, unsparable), 0.25, 2.0);
      }
    }
    out.push_back(o);
  }
  return out;
}

CoupledImpact analyze_coupled_failure(const topo::InfrastructureNetwork& net,
                                      const std::vector<bool>& cable_dead,
                                      const std::vector<GridOutcome>& grid,
                                      double backup_probability,
                                      util::Rng& rng) {
  if (grid.size() != grid_regions().size()) {
    throw std::invalid_argument(
        "analyze_coupled_failure: grid outcome size mismatch");
  }
  if (backup_probability < 0.0 || backup_probability > 1.0) {
    throw std::invalid_argument(
        "analyze_coupled_failure: bad backup probability");
  }
  CoupledImpact impact;
  const auto unreachable = net.unreachable_nodes(cable_dead);
  impact.nodes_unreachable_cables = unreachable.size();
  std::vector<bool> down(net.node_count(), false);
  for (topo::NodeId n : unreachable) down[n] = true;

  std::size_t connected_nodes = 0;
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    if (net.cables_at(n).empty()) continue;
    ++connected_nodes;
    const std::size_t region = region_index_at(net.node(n).location);
    if (grid[region].blackout && !rng.bernoulli(backup_probability)) {
      if (!down[n]) {
        down[n] = true;
      }
      ++impact.nodes_without_power;
    }
  }
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    if (!net.cables_at(n).empty() && down[n]) ++impact.nodes_down_combined;
  }
  impact.combined_down_fraction =
      connected_nodes > 0
          ? static_cast<double>(impact.nodes_down_combined) /
                static_cast<double>(connected_nodes)
          : 0.0;
  return impact;
}

}  // namespace solarnet::powergrid
