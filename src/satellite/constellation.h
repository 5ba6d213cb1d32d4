// LEO satellite constellation model (§3.3 and §5.1 of the paper: Starlink-
// class constellations are "directly exposed to powerful CMEs"; studying
// their storm response is called out as future work). A Walker-delta
// constellation with circular orbits: enough fidelity for coverage and
// drag analyses without a full orbit propagator.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/coords.h"

namespace solarnet::satellite {

struct SatelliteState {
  std::size_t plane = 0;
  std::size_t index_in_plane = 0;
  geo::GeoPoint ground_point;  // sub-satellite point
  double altitude_km = 0.0;
};

// The shell is Starlink shell 1: 72 planes x 22 sats at 53 deg, Walker
// phasing factor 17 (constants in constellation.cpp); only the altitude
// varies.
class Constellation {
 public:
  // Throws std::invalid_argument when `altitude_km` is not above the
  // 100 km LEO floor.
  explicit Constellation(double altitude_km = 550.0);

  double altitude_km() const noexcept { return altitude_km_; }
  std::size_t size() const noexcept;

  // Orbital mechanics for the shell's circular orbit.
  double orbital_period_s() const noexcept;

  // Sub-satellite points at time t (seconds since epoch), accounting for
  // earth rotation.
  std::vector<SatelliteState> states_at(double t_seconds) const;

  // Half-angle (degrees of earth-central angle) of one satellite's
  // coverage circle at a minimum elevation.
  double coverage_half_angle_deg(double min_elevation_deg) const;

  // Fraction of a lat/lon sample band covered by >= 1 satellite at time t.
  // Sampling is on a uniform grid within |lat| <= max_abs_lat.
  double coverage_fraction(double t_seconds, double min_elevation_deg,
                           double max_abs_lat = 60.0,
                           double sample_step_deg = 5.0) const;

 private:
  double altitude_km_;
};

}  // namespace solarnet::satellite
