// Cable capacity model. TeleGeography-style lit capacity is not public per
// cable, so we estimate design capacity from cable kind and length: modern
// long-haul systems carry more fiber pairs but older/longer systems carry
// less per pair; land conduits bundle many fibers. The absolute scale is
// fixed — the traffic analyses only consume utilization ratios.
#pragma once

#include "topology/cable.h"

namespace solarnet::routing {

// Submarine: 160 Tbps for a short regional system, halving every 9000 km
// (longer systems are older on average and carry fewer pairs; constants in
// capacity.cpp), down to a floor.
inline constexpr double kSubmarineFloorTbps = 8.0;
// Land long-haul conduits and regional links.
inline constexpr double kLandLongHaulTbps = 240.0;
inline constexpr double kLandRegionalTbps = 60.0;

double capacity_tbps(const topo::Cable& cable);

}  // namespace solarnet::routing
