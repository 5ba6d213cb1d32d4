// Cable induction: integrates the geoelectric field along a cable's
// great-circle route to estimate induced end-to-end potential and the peak
// GIC that can enter the power-feeding line. Physical constants follow
// §3.2 of the paper: the feed line is ~0.8 ohm/km, repeaters operate at
// ~1 A (a 9,000 km 96-wave system needs ~11 kV of feed voltage), and
// storm-time GIC of 100-130 A — roughly 100x the operating current — is
// what damages repeaters.
#pragma once

#include <vector>

#include "gic/efield.h"
#include "topology/cable.h"
#include "topology/network.h"

namespace solarnet::gic {

// The power-feed line; FieldDrivenFailureModel reads the same pair.
inline constexpr double kFeedResistanceOhmPerKm = 0.8;
inline constexpr double kOperatingCurrentAmp = 1.1;

struct CableInduction {
  // |integral of E dl| over the whole route, volts (worst-case orientation:
  // the field magnitude is integrated, matching the paper's observation
  // that CME-induced fluctuations have no directional preference).
  double total_potential_v = 0.0;
  // Largest potential across any grounding section, volts.
  double max_section_potential_v = 0.0;
  // Peak GIC over any section: section potential / section resistance.
  double peak_gic_amp = 0.0;
  // Peak GIC as a multiple of the repeater operating current.
  double overload_factor = 0.0;
};

// Computes induction quantities for one cable of `net` under `field`.
// `grounding_interval_km` is the interval between sea-earth grounding
// points; GIC enters/exits where the conductor is grounded, and the
// potential between adjacent grounds drives the section current (§3.2.2).
// Throws std::invalid_argument unless it is > 0.
CableInduction compute_cable_induction(const topo::InfrastructureNetwork& net,
                                       topo::CableId cable,
                                       const GeoelectricFieldModel& field,
                                       double grounding_interval_km = 1000.0);

// All cables of a network.
std::vector<CableInduction> compute_network_induction(
    const topo::InfrastructureNetwork& net, const GeoelectricFieldModel& field);

}  // namespace solarnet::gic
