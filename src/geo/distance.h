// Great-circle geometry: distances, destinations, interpolation, and path
// sampling. The GIC induction model integrates the geoelectric field along
// great-circle cable paths, and the repeater layout spaces repeaters by
// great-circle arc length, so these routines sit under most of the library.
#pragma once

#include <vector>

#include "geo/coords.h"

namespace solarnet::geo {

// Haversine great-circle distance in kilometres.
double haversine_km(const GeoPoint& a, const GeoPoint& b) noexcept;

// Point reached by travelling `distance_km` from `start` along `bearing_deg`.
GeoPoint destination(const GeoPoint& start, double bearing_deg,
                     double distance_km) noexcept;

// Spherical linear interpolation between a and b; t in [0, 1]. t outside
// the range is clamped. Antipodal points take an arbitrary (but stable)
// great circle.
GeoPoint interpolate(const GeoPoint& a, const GeoPoint& b, double t) noexcept;

// Samples the great-circle path from a to b every `step_km`, always
// including both endpoints. step_km <= 0 throws std::invalid_argument.
std::vector<GeoPoint> sample_path(const GeoPoint& a, const GeoPoint& b,
                                  double step_km);

// Multiplies great-circle distance by an empirical road-circuity factor to
// approximate driving distance. The paper measures US long-haul fiber link
// lengths as driving distances (fiber follows highways); published
// circuity studies put the factor between ~1.2 (long hauls) and ~1.45
// (short hops), which is what this piecewise model encodes.
// `circuity_scale` scales the whole piecewise profile — the sensitivity
// knob for DESIGN.md choice #3 (1.0 = the published-study defaults).
double road_distance_km(const GeoPoint& a, const GeoPoint& b,
                        double circuity_scale) noexcept;
double road_distance_km(const GeoPoint& a, const GeoPoint& b) noexcept;

}  // namespace solarnet::geo
