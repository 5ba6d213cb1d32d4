// Storm-time atmospheric drag on LEO satellites (§3.3: "extra drag on the
// satellite, particularly in low-earth orbit systems such as Starlink,
// that can cause orbital decay and uncontrolled reentry"). Geomagnetic
// storms heat the thermosphere and multiply neutral density at LEO
// altitudes several-fold (the February 2022 Starlink loss event was a
// *minor* storm); this module turns a storm intensity into decay rates,
// fleet losses, and station-keeping margins.
#pragma once

#include <cstddef>

#include "gic/storm.h"
#include "satellite/constellation.h"

namespace solarnet::satellite {

// The model assumes an exponential atmosphere fitted to quiet thermosphere
// conditions, a Starlink-class ballistic coefficient, a fixed station-
// keeping authority and a 200 km reentry floor (constants in drag.cpp).

// Thermospheric density multiplier for a storm scenario (quiet = 1).
// Calibrated so a 1989-class storm roughly doubles density and a
// Carrington-class storm pushes a ~10x enhancement at LEO.
double storm_density_multiplier(const gic::StormScenario& storm);

// Neutral density (kg/m^3) at altitude under a storm multiplier.
double density(double altitude_km, double storm_multiplier = 1.0);

// Orbit-averaged decay rate (km/day) for a circular orbit.
double decay_rate_km_per_day(double altitude_km,
                             double storm_multiplier = 1.0);

// Days until decay from `altitude_km` to the reentry altitude with no
// station keeping (numerical integration).
double passive_lifetime_days(double altitude_km,
                             double storm_multiplier = 1.0);

// Altitude lost over a storm of `days` duration, net of station keeping
// (>= 0; zero when thrusters can hold the orbit).
double net_altitude_loss_km(double altitude_km, double storm_multiplier,
                            double days);

struct FleetImpact {
  std::size_t fleet_size = 0;
  double decay_rate_quiet_km_day = 0.0;
  double decay_rate_storm_km_day = 0.0;
  double net_loss_km = 0.0;      // per satellite, over the storm
  bool station_keeping_holds = false;
  // Fraction of the fleet lost: satellites whose net loss exceeds the
  // operational margin (altitude - reentry floor is conservative for a
  // multi-week storm recovery; we use a 25 km operational band).
  double fleet_loss_fraction = 0.0;
};

// Evaluates a storm of `storm_days` against a constellation shell.
FleetImpact evaluate_fleet_impact(const Constellation& constellation,
                                  const gic::StormScenario& storm,
                                  double storm_days);

}  // namespace solarnet::satellite
