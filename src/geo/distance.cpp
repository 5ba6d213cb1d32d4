#include "geo/distance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace solarnet::geo {

double haversine_km(const GeoPoint& a, const GeoPoint& b) noexcept {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(std::min(1.0, h)));
}

GeoPoint destination(const GeoPoint& start, double bearing_deg,
                     double distance_km) noexcept {
  const double delta = distance_km / kEarthRadiusKm;
  const double theta = deg_to_rad(bearing_deg);
  const double lat1 = deg_to_rad(start.lat_deg);
  const double lon1 = deg_to_rad(start.lon_deg);
  const double sin_lat2 = std::sin(lat1) * std::cos(delta) +
                          std::cos(lat1) * std::sin(delta) * std::cos(theta);
  const double lat2 = std::asin(std::clamp(sin_lat2, -1.0, 1.0));
  const double y = std::sin(theta) * std::sin(delta) * std::cos(lat1);
  const double x = std::cos(delta) - std::sin(lat1) * std::sin(lat2);
  const double lon2 = lon1 + std::atan2(y, x);
  return {rad_to_deg(lat2), normalize_longitude(rad_to_deg(lon2))};
}

GeoPoint interpolate(const GeoPoint& a, const GeoPoint& b, double t) noexcept {
  t = std::clamp(t, 0.0, 1.0);
  const Vec3 va = to_unit_vector(a);
  const Vec3 vb = to_unit_vector(b);
  const double dot =
      std::clamp(va.x * vb.x + va.y * vb.y + va.z * vb.z, -1.0, 1.0);
  const double omega = std::acos(dot);
  if (omega < 1e-12) return a;  // coincident points
  const double sin_omega = std::sin(omega);
  double wa, wb;
  if (sin_omega < 1e-12) {
    // Antipodal: any great circle works; fall back to linear weights, which
    // yields a stable (if arbitrary) midpoint path.
    wa = 1.0 - t;
    wb = t;
  } else {
    wa = std::sin((1.0 - t) * omega) / sin_omega;
    wb = std::sin(t * omega) / sin_omega;
  }
  const Vec3 v{wa * va.x + wb * vb.x, wa * va.y + wb * vb.y,
               wa * va.z + wb * vb.z};
  return from_unit_vector(v);
}

std::vector<GeoPoint> sample_path(const GeoPoint& a, const GeoPoint& b,
                                  double step_km) {
  if (step_km <= 0.0) {
    throw std::invalid_argument("sample_path: step_km must be positive");
  }
  const double total = haversine_km(a, b);
  std::vector<GeoPoint> path;
  if (total <= step_km || total == 0.0) {
    path.push_back(a);
    path.push_back(b);
    return path;
  }
  const auto segments = static_cast<std::size_t>(std::ceil(total / step_km));
  path.reserve(segments + 1);
  for (std::size_t i = 0; i <= segments; ++i) {
    path.push_back(
        interpolate(a, b, static_cast<double>(i) / static_cast<double>(segments)));
  }
  return path;
}

double road_distance_km(const GeoPoint& a, const GeoPoint& b,
                        double circuity_scale) noexcept {
  const double gc = haversine_km(a, b);
  // Circuity shrinks with distance: short metro hops detour the most,
  // cross-country routes approach the great circle.
  double circuity;
  if (gc < 100.0) {
    circuity = 1.45;
  } else if (gc < 500.0) {
    circuity = 1.35;
  } else if (gc < 1500.0) {
    circuity = 1.27;
  } else {
    circuity = 1.20;
  }
  // Scaling applies to the detour share, never below the great circle.
  return gc * std::max(1.0, 1.0 + (circuity - 1.0) * circuity_scale);
}

double road_distance_km(const GeoPoint& a, const GeoPoint& b) noexcept {
  return road_distance_km(a, b, 1.0);
}

}  // namespace solarnet::geo
