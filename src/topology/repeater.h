// Repeater layout. Long-haul cables carry optical repeaters on a powered
// feed line at a constant spacing (50-150 km in deployed systems, §3.2 of
// the paper); the count and geographic position of those repeaters are what
// the failure models sample over.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/coords.h"
#include "topology/cable.h"
#include "topology/node.h"

namespace solarnet::topo {

// Number of repeaters on a run of `length_km` at `spacing_km`: one per full
// spacing interval, none when the run fits in a single span. Matches the
// paper's accounting (a 9,000 km cable at ~70 km spacing carries ~130
// repeaters; 258 of the 542 Intertubes cables need none at 150 km).
// Throws std::invalid_argument when spacing_km <= 0, length_km < 0, or the
// count does not fit in std::size_t.
std::size_t repeater_count(double length_km, double spacing_km);

// Total repeaters across all segments of a cable.
std::size_t cable_repeater_count(const Cable& cable, double spacing_km);

// A repeater instance with its position on the earth, used by
// latitude-aware failure models and the field-driven extension.
struct Repeater {
  CableId cable = kInvalidCable;
  geo::GeoPoint location;
};

// Positions of all repeaters of `cable`, spaced along the great-circle path
// of each segment. `nodes` must contain every node the cable references.
std::vector<Repeater> repeater_positions(const Cable& cable, CableId id,
                                         const std::vector<Node>& nodes,
                                         double spacing_km);

// What a failure model sees of one repeater (gic::RepeaterFailureModel).
struct RepeaterContext {
  geo::GeoPoint location;
  // Highest |latitude| over the repeater's cable endpoints (the quantity
  // the paper's non-uniform model uses).
  double cable_max_abs_lat_deg = 0.0;
};

// Every repeater of a network at one spacing, cable by cable in id order:
// cable c owns repeaters [cable_offset[c], cable_offset[c + 1]). It depends
// only on the network and the spacing, so the network builds it once per
// spacing and every simulator on them shares it
// (InfrastructureNetwork::repeater_layout).
struct RepeaterLayout {
  std::vector<RepeaterContext> repeaters;
  std::vector<std::size_t> cable_offset;  // size cables + 1
  std::size_t repeaterless_cables = 0;
};

}  // namespace solarnet::topo
