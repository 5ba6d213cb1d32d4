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

struct ConstellationConfig {
  // Defaults: Starlink shell 1 (72 planes x 22 sats, 550 km, 53 deg).
  std::size_t planes = 72;
  std::size_t sats_per_plane = 22;
  double altitude_km = 550.0;
  double inclination_deg = 53.0;
  // Walker phasing factor F in [0, planes).
  std::size_t phasing = 17;
};

struct SatelliteState {
  std::size_t plane = 0;
  std::size_t index_in_plane = 0;
  geo::GeoPoint ground_point;  // sub-satellite point
  double altitude_km = 0.0;
};

class Constellation {
 public:
  explicit Constellation(ConstellationConfig config = {});

  const ConstellationConfig& config() const noexcept { return config_; }
  std::size_t size() const noexcept {
    return config_.planes * config_.sats_per_plane;
  }

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
  ConstellationConfig config_;
};

}  // namespace solarnet::satellite
