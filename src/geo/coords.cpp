#include "geo/coords.h"

#include <algorithm>
#include <stdexcept>

namespace solarnet::geo {

double normalize_longitude(double lon_deg) noexcept {
  double lon = std::fmod(lon_deg + 180.0, 360.0);
  if (lon < 0.0) lon += 360.0;
  return lon - 180.0;
}

bool is_valid(const GeoPoint& p) noexcept {
  return std::isfinite(p.lat_deg) && std::isfinite(p.lon_deg) &&
         p.lat_deg >= -90.0 && p.lat_deg <= 90.0;
}

GeoPoint validated(GeoPoint p) {
  if (!std::isfinite(p.lat_deg) || !std::isfinite(p.lon_deg)) {
    throw std::invalid_argument("GeoPoint: non-finite coordinate");
  }
  if (p.lat_deg < -90.0 || p.lat_deg > 90.0) {
    throw std::invalid_argument("GeoPoint: latitude outside [-90, 90]: " +
                                std::to_string(p.lat_deg));
  }
  p.lon_deg = normalize_longitude(p.lon_deg);
  return p;
}

Vec3 to_unit_vector(const GeoPoint& p) noexcept {
  const double lat = deg_to_rad(p.lat_deg);
  const double lon = deg_to_rad(p.lon_deg);
  return {std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
          std::sin(lat)};
}

GeoPoint from_unit_vector(const Vec3& v) noexcept {
  const double norm = std::sqrt(v.x * v.x + v.y * v.y + v.z * v.z);
  if (norm == 0.0) return {0.0, 0.0};
  const double z = v.z / norm;
  const double lat = rad_to_deg(std::asin(std::clamp(z, -1.0, 1.0)));
  const double lon = rad_to_deg(std::atan2(v.y, v.x));
  return {lat, normalize_longitude(lon)};
}

}  // namespace solarnet::geo
