// Power-grid interdependence (§5.5). The paper stresses that grids and the
// Internet now fail together: GIC destroys HV transformers (the 1989
// Quebec collapse; 0.6-2.6 trillion USD for a Carrington repeat), and
// landing stations, IXPs and data centers need grid power. This module
// models regional grids, storm-driven transformer losses, restoration
// timelines (transformer manufacturing is the §5.5 roadblock), and the
// coupled network+power failure picture.
#pragma once

#include <string>
#include <vector>

#include "geo/regions.h"
#include "gic/efield.h"
#include "topology/network.h"
#include "util/rng.h"

namespace solarnet::powergrid {

struct GridRegion {
  std::string name;
  geo::GeoBox footprint;
  // Representative point for field evaluation (load-weighted centroid).
  geo::GeoPoint centroid;
  double peak_load_gw = 0.0;
  // High-voltage transformers in service (order-of-magnitude figures).
  std::size_t hv_transformers = 0;
};

// Curated regional grids (the three US interconnections the paper names,
// plus the other major systems the datasets touch).
const std::vector<GridRegion>& grid_regions();

// Region containing a point (footprint box first, nearest centroid as the
// fallback). Always returns a valid index into grid_regions().
std::size_t region_index_at(const geo::GeoPoint& p);

struct GridOutcome {
  std::string region;
  double field_v_per_km = 0.0;
  double transformer_failure_fraction = 0.0;
  bool blackout = false;
  // Days until the region recovers enough transformers to re-energize.
  double restoration_days = 0.0;
};

// Deterministic expected-value evaluation of a storm against every region.
// Transformers fail on a logistic in the local field (50% at 12 V/km); a
// region blacks out when it loses 20% of them; 30% of failed units are
// swapped from spares, the rest wait a year on manufacturing (§5.5;
// constants in grid.cpp).
std::vector<GridOutcome> evaluate_grid(
    const gic::GeoelectricFieldModel& field);

struct CoupledImpact {
  // Network nodes whose region is blacked out (and lack backup power).
  std::size_t nodes_without_power = 0;
  // Nodes unreachable from cable damage alone.
  std::size_t nodes_unreachable_cables = 0;
  // Nodes out of service for either reason.
  std::size_t nodes_down_combined = 0;
  double combined_down_fraction = 0.0;  // of cable-bearing nodes
  double amplification() const noexcept {
    return nodes_unreachable_cables > 0
               ? static_cast<double>(nodes_down_combined) /
                     static_cast<double>(nodes_unreachable_cables)
               : 0.0;
  }
};

// Couples a cable-failure draw with the grid outcomes: a node is down when
// all its cables failed OR its grid region is dark and the node lost the
// backup-power lottery (backup_probability per node).
CoupledImpact analyze_coupled_failure(const topo::InfrastructureNetwork& net,
                                      const std::vector<bool>& cable_dead,
                                      const std::vector<GridOutcome>& grid,
                                      double backup_probability,
                                      util::Rng& rng);

}  // namespace solarnet::powergrid
