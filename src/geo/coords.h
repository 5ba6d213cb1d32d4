// Geographic coordinate primitives. Latitude/longitude are stored in
// degrees (the unit every dataset in the paper uses); conversions to
// radians happen inside the math routines.
#pragma once

#include <cmath>
#include <numbers>

namespace solarnet::geo {

inline constexpr double kEarthRadiusKm = 6371.0088;  // IUGG mean radius
inline constexpr double kKmPerDegreeLatitude = 111.32;

constexpr double deg_to_rad(double deg) noexcept {
  return deg * std::numbers::pi / 180.0;
}

constexpr double rad_to_deg(double rad) noexcept {
  return rad * 180.0 / std::numbers::pi;
}

// Wraps a longitude into [-180, 180).
double normalize_longitude(double lon_deg) noexcept;

// A point on the Earth's surface, in degrees. Invariant (enforced by
// validated()): lat in [-90, 90], lon in [-180, 180).
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  // Absolute latitude — the quantity the paper's vulnerability thresholds
  // (|lat| > 40°) are defined over.
  double abs_lat() const noexcept { return std::abs(lat_deg); }

  friend bool operator==(const GeoPoint&, const GeoPoint&) = default;
};

// Returns a copy with longitude normalized; throws std::invalid_argument if
// latitude is outside [-90, 90] or either coordinate is non-finite.
GeoPoint validated(GeoPoint p);

bool is_valid(const GeoPoint& p) noexcept;

// Unit vector on the sphere; used by great-circle interpolation.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

Vec3 to_unit_vector(const GeoPoint& p) noexcept;
GeoPoint from_unit_vector(const Vec3& v) noexcept;

}  // namespace solarnet::geo
