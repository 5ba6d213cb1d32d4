#include "satellite/drag.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "geo/coords.h"

namespace solarnet::satellite {

namespace {
constexpr double kMuEarth_km3_s2 = 398600.4418;
constexpr double kSecondsPerDay = 86400.0;
constexpr double kOperationalBandKm = 25.0;
// Exponential atmosphere fitted to quiet thermosphere conditions.
constexpr double kReferenceAltitudeKm = 550.0;
constexpr double kReferenceDensityKgM3 = 1.0e-13;
constexpr double kScaleHeightKm = 75.0;
// Ballistic coefficient Cd*A/m of the satellite (m^2/kg); Starlink-class
// flat-panel satellites are draggy for their mass.
constexpr double kBallisticCoefficientM2Kg = 0.01;
// Thruster authority: the altitude-loss rate (km/day) the satellite can
// counteract continuously.
constexpr double kStationKeepingKmPerDay = 0.35;
// Below this altitude drag wins unconditionally and reentry follows.
constexpr double kReentryAltitudeKm = 200.0;
}  // namespace

double storm_density_multiplier(const gic::StormScenario& storm) {
  // Thermospheric density response grows with storm strength; anchors:
  // quiet ~ 1x, 1989-class (1.6 V/km) ~ 2x, Carrington-class (16 V/km)
  // ~ 10x. A power law through those anchors.
  const double field = std::max(0.0, storm.peak_field_v_per_km);
  return 1.0 + 0.639 * std::pow(field, 0.954);
}

double density(double altitude_km, double storm_multiplier) {
  if (storm_multiplier <= 0.0) {
    throw std::invalid_argument("density: bad multiplier");
  }
  return storm_multiplier * kReferenceDensityKgM3 *
         std::exp(-(altitude_km - kReferenceAltitudeKm) / kScaleHeightKm);
}

double decay_rate_km_per_day(double altitude_km, double storm_multiplier) {
  // Circular-orbit decay: da/orbit = -2 pi a^2 rho B (a in metres).
  const double a_km = geo::kEarthRadiusKm + altitude_km;
  const double a_m = a_km * 1000.0;
  const double rho = density(altitude_km, storm_multiplier);
  const double da_per_orbit_m =
      2.0 * std::numbers::pi * a_m * a_m * rho * kBallisticCoefficientM2Kg;
  const double period_s =
      2.0 * std::numbers::pi * std::sqrt(a_km * a_km * a_km / kMuEarth_km3_s2);
  const double orbits_per_day = kSecondsPerDay / period_s;
  return da_per_orbit_m * orbits_per_day / 1000.0;  // km/day
}

double passive_lifetime_days(double altitude_km, double storm_multiplier) {
  if (altitude_km <= kReentryAltitudeKm) return 0.0;
  double altitude = altitude_km;
  double days = 0.0;
  const double step_cap_days = 5.0;
  while (altitude > kReentryAltitudeKm) {
    const double rate = decay_rate_km_per_day(altitude, storm_multiplier);
    if (rate <= 0.0) return std::numeric_limits<double>::infinity();
    // Adaptive step: lose at most one scale height per step.
    const double step_days =
        std::min(step_cap_days, 0.2 * kScaleHeightKm / rate);
    altitude -= rate * step_days;
    days += step_days;
    if (days > 200.0 * 365.0) {
      return std::numeric_limits<double>::infinity();  // effectively stable
    }
  }
  return days;
}

double net_altitude_loss_km(double altitude_km, double storm_multiplier,
                            double days) {
  if (days <= 0.0) return 0.0;
  double altitude = altitude_km;
  double lost = 0.0;
  double remaining = days;
  while (remaining > 0.0 && altitude > kReentryAltitudeKm) {
    const double rate = decay_rate_km_per_day(altitude, storm_multiplier) -
                        kStationKeepingKmPerDay;
    if (rate <= 0.0) break;  // thrusters hold the orbit
    const double step = std::min(remaining, 0.5);
    altitude -= rate * step;
    lost += rate * step;
    remaining -= step;
  }
  return lost;
}

FleetImpact evaluate_fleet_impact(const Constellation& constellation,
                                  const gic::StormScenario& storm,
                                  double storm_days) {
  FleetImpact impact;
  impact.fleet_size = constellation.size();
  const double altitude = constellation.altitude_km();
  const double multiplier = storm_density_multiplier(storm);
  impact.decay_rate_quiet_km_day = decay_rate_km_per_day(altitude, 1.0);
  impact.decay_rate_storm_km_day =
      decay_rate_km_per_day(altitude, multiplier);
  impact.net_loss_km = net_altitude_loss_km(altitude, multiplier, storm_days);
  impact.station_keeping_holds = impact.net_loss_km <= 0.0;

  // Fleet loss: satellites pushed out of the operational band (or into
  // reentry) are lost. The loss fraction ramps with how far past the band
  // the net loss goes — satellites differ in attitude/drag state, which a
  // mean-field model cannot resolve, so the ramp stands in for the spread.
  if (impact.net_loss_km <= 0.0) {
    impact.fleet_loss_fraction = 0.0;
  } else {
    impact.fleet_loss_fraction = std::clamp(
        impact.net_loss_km / kOperationalBandKm, 0.0, 1.0);
  }
  return impact;
}

}  // namespace solarnet::satellite
