// The global submarine cable map.
//
// The paper uses TeleGeography's public map: 470 cables, 1241 landing
// points, lengths from ~30 km to 39,000 km (median 775 km, p99 28,000 km),
// with 29 cables lacking length data. We cannot redistribute that dataset,
// so this module builds a calibrated substitute from two layers:
//
//   1. ~110 curated anchor cables — real systems with their public routes
//     and approximate published lengths (TAT-14, MAREA, EllaLink, Equiano,
//     SEA-ME-WE-3..5, Southern Cross, Curie, ...). These carry the
//     country-level connectivity structure the paper's §4.3.4 narrates.
//   2. synthetic filler cables drawn from a length mixture and the curated
//     coastal-city pool, steered so the aggregate counts and length/latitude
//     distributions match the paper's reported statistics.
//
// Real TeleGeography exports can be loaded instead via datasets/loaders.h.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "topology/network.h"

namespace solarnet::datasets {

struct SubmarineConfig {
  std::size_t total_cables = 470;
  std::size_t target_landing_points = 1241;
  // Cables published without a length (29 in the 2021 TeleGeography map);
  // they participate in failure analysis but not length statistics.
  std::size_t cables_without_length = 29;
  std::uint64_t seed = 1859;  // default: the Carrington year
};

// A curated real-world cable: trunk stops are world_cities() names; a
// stated_length_km of 0 means "use the great-circle length of the route".
struct AnchorCable {
  std::string name;
  double stated_length_km = 0.0;
  std::vector<std::string> stops;
  // Extra branch segments (from-city, to-city), e.g. branching units.
  std::vector<std::pair<std::string, std::string>> branches;
};

// The anchor table (stable order; exposed for tests and documentation).
const std::vector<AnchorCable>& anchor_cables();

// Builds the full calibrated network.
topo::InfrastructureNetwork make_submarine_network(
    const SubmarineConfig& config = {});

}  // namespace solarnet::datasets
