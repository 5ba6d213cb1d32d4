#include "satellite/constellation.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "geo/distance.h"

namespace solarnet::satellite {

namespace {
constexpr double kMuEarth_km3_s2 = 398600.4418;
constexpr double kEarthRotation_rad_s = 7.2921159e-5;
// Starlink shell 1: 72 planes x 22 sats at 53 deg.
constexpr std::size_t kPlanes = 72;
constexpr std::size_t kSatsPerPlane = 22;
constexpr double kInclinationDeg = 53.0;
// Walker phasing factor F in [0, planes).
constexpr std::size_t kPhasing = 17;
}  // namespace

Constellation::Constellation(double altitude_km) : altitude_km_(altitude_km) {
  if (altitude_km_ <= 100.0) {
    throw std::invalid_argument("Constellation: altitude below LEO floor");
  }
}

std::size_t Constellation::size() const noexcept {
  return kPlanes * kSatsPerPlane;
}

double Constellation::orbital_period_s() const noexcept {
  const double a = geo::kEarthRadiusKm + altitude_km_;
  return 2.0 * std::numbers::pi * std::sqrt(a * a * a / kMuEarth_km3_s2);
}

std::vector<SatelliteState> Constellation::states_at(double t_seconds) const {
  std::vector<SatelliteState> out;
  out.reserve(size());
  const double inc = geo::deg_to_rad(kInclinationDeg);
  const double mean_motion =
      2.0 * std::numbers::pi / orbital_period_s();  // rad/s
  const double earth_spin = kEarthRotation_rad_s * t_seconds;

  for (std::size_t p = 0; p < kPlanes; ++p) {
    const double raan = 2.0 * std::numbers::pi * static_cast<double>(p) /
                        static_cast<double>(kPlanes);
    for (std::size_t s = 0; s < kSatsPerPlane; ++s) {
      // Walker-delta phasing: in-plane offset advances by F between
      // adjacent planes.
      const double phase_offset =
          2.0 * std::numbers::pi *
          (static_cast<double>(s) / static_cast<double>(kSatsPerPlane) +
           static_cast<double>(kPhasing) * static_cast<double>(p) /
               static_cast<double>(kPlanes * kSatsPerPlane));
      const double u = phase_offset + mean_motion * t_seconds;

      const double sin_lat = std::sin(inc) * std::sin(u);
      const double lat = std::asin(std::clamp(sin_lat, -1.0, 1.0));
      const double lon_orbital =
          std::atan2(std::cos(inc) * std::sin(u), std::cos(u));
      const double lon = raan + lon_orbital - earth_spin;

      SatelliteState st;
      st.plane = p;
      st.index_in_plane = s;
      st.ground_point = geo::validated(
          {geo::rad_to_deg(lat), geo::rad_to_deg(lon)});
      st.altitude_km = altitude_km_;
      out.push_back(st);
    }
  }
  return out;
}

double Constellation::coverage_half_angle_deg(double min_elevation_deg) const {
  const double eps = geo::deg_to_rad(min_elevation_deg);
  const double ratio = geo::kEarthRadiusKm /
                       (geo::kEarthRadiusKm + altitude_km_);
  // Earth-central angle: lambda = acos(ratio * cos eps) - eps.
  const double lambda = std::acos(std::clamp(ratio * std::cos(eps), -1.0,
                                             1.0)) -
                        eps;
  return geo::rad_to_deg(std::max(0.0, lambda));
}

double Constellation::coverage_fraction(double t_seconds,
                                        double min_elevation_deg,
                                        double max_abs_lat,
                                        double sample_step_deg) const {
  if (sample_step_deg <= 0.0) {
    throw std::invalid_argument("coverage_fraction: bad sample step");
  }
  const auto states = states_at(t_seconds);
  const double reach_deg = coverage_half_angle_deg(min_elevation_deg);
  const double reach_km = geo::deg_to_rad(reach_deg) * geo::kEarthRadiusKm;

  std::size_t covered = 0;
  std::size_t total = 0;
  for (double lat = -max_abs_lat; lat <= max_abs_lat;
       lat += sample_step_deg) {
    for (double lon = -180.0; lon < 180.0; lon += sample_step_deg) {
      ++total;
      const geo::GeoPoint p{lat, lon};
      for (const SatelliteState& st : states) {
        // Cheap latitude pre-filter before the haversine.
        if (std::abs(st.ground_point.lat_deg - lat) > reach_deg + 0.01) {
          continue;
        }
        if (geo::haversine_km(p, st.ground_point) <= reach_km) {
          ++covered;
          break;
        }
      }
    }
  }
  return total > 0 ? static_cast<double>(covered) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace solarnet::satellite
