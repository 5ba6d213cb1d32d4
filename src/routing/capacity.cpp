#include "routing/capacity.h"

#include <algorithm>
#include <cmath>

namespace solarnet::routing {

namespace {
// Submarine: base capacity for a short regional system, decaying with
// length (longer systems are older on average and carry fewer pairs).
constexpr double kSubmarineBaseTbps = 160.0;
constexpr double kSubmarineHalvingLengthKm = 9000.0;
}  // namespace

double capacity_tbps(const topo::Cable& cable) {
  switch (cable.kind) {
    case topo::CableKind::kLandLongHaul:
      return kLandLongHaulTbps;
    case topo::CableKind::kLandRegional:
      return kLandRegionalTbps;
    case topo::CableKind::kSubmarine:
      break;
  }
  const double length = cable.total_length_km();
  const double capacity =
      kSubmarineBaseTbps * std::pow(0.5, length / kSubmarineHalvingLengthKm);
  return std::max(kSubmarineFloorTbps, capacity);
}

}  // namespace solarnet::routing
