#include "topology/repeater.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "geo/distance.h"

namespace solarnet::topo {

std::size_t repeater_count(double length_km, double spacing_km) {
  if (spacing_km <= 0.0) {
    throw std::invalid_argument("repeater_count: spacing must be positive");
  }
  if (length_km < 0.0 || !std::isfinite(length_km)) {
    throw std::invalid_argument("repeater_count: invalid length");
  }
  if (length_km <= spacing_km) return 0;
  const double count = std::floor(length_km / spacing_km);
  // The cast is undefined beyond size_t's range (e.g. a spacing of
  // 1e-300 km); the comparison also rejects a NaN spacing.
  if (!(count < static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    throw std::invalid_argument(
        "repeater_count: length_km / spacing_km does not fit in size_t");
  }
  return static_cast<std::size_t>(count);
}

std::size_t cable_repeater_count(const Cable& cable, double spacing_km) {
  std::size_t total = 0;
  for (const CableSegment& s : cable.segments) {
    total += repeater_count(s.length_km, spacing_km);
  }
  return total;
}

std::vector<Repeater> repeater_positions(const Cable& cable, CableId id,
                                         const std::vector<Node>& nodes,
                                         double spacing_km) {
  std::vector<Repeater> out;
  for (const CableSegment& s : cable.segments) {
    const std::size_t count = repeater_count(s.length_km, spacing_km);
    if (count == 0) continue;
    if (s.a >= nodes.size() || s.b >= nodes.size()) {
      throw std::out_of_range("repeater_positions: segment node out of range");
    }
    const geo::GeoPoint& pa = nodes[s.a].location;
    const geo::GeoPoint& pb = nodes[s.b].location;
    // Repeaters sit at equal fractions of the segment. The stated segment
    // length may exceed the great-circle distance (cables meander); the
    // great-circle parameterization is the best position estimate available.
    for (std::size_t i = 1; i <= count; ++i) {
      const double t =
          static_cast<double>(i) / static_cast<double>(count + 1);
      out.push_back({id, geo::interpolate(pa, pb, t)});
    }
  }
  return out;
}

}  // namespace solarnet::topo
