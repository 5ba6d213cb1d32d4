#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "geo/distance.h"
#include "satellite/constellation.h"
#include "satellite/drag.h"

namespace solarnet::satellite {
namespace {

TEST(Constellation, SizeAndValidation) {
  const Constellation c;
  EXPECT_EQ(c.size(), 72u * 22u);
  EXPECT_THROW(Constellation{50.0}, std::invalid_argument);
}

TEST(Constellation, OrbitalPeriodMatchesKepler) {
  const Constellation c;  // 550 km
  // ISS-like LEO periods are ~90-96 minutes.
  EXPECT_NEAR(c.orbital_period_s(), 5730.0, 60.0);
}

TEST(Constellation, GroundTracksBoundedByInclination) {
  const Constellation c;  // 53 deg inclination
  for (double t : {0.0, 1000.0, 5000.0}) {
    for (const SatelliteState& s : c.states_at(t)) {
      EXPECT_LE(std::abs(s.ground_point.lat_deg), 53.0 + 1e-6);
      EXPECT_DOUBLE_EQ(s.altitude_km, 550.0);
    }
  }
}

TEST(Constellation, SatellitesActuallyMove) {
  const Constellation c;
  const auto s0 = c.states_at(0.0);
  const auto s1 = c.states_at(300.0);
  const double moved =
      geo::haversine_km(s0[0].ground_point, s1[0].ground_point);
  // ~7.6 km/s ground speed (minus earth rotation) for 300 s.
  EXPECT_GT(moved, 1500.0);
}

TEST(Constellation, CoverageHalfAngleShrinksWithElevation) {
  const Constellation c;
  const double wide = c.coverage_half_angle_deg(25.0);
  const double narrow = c.coverage_half_angle_deg(40.0);
  EXPECT_GT(wide, narrow);
  EXPECT_GT(narrow, 0.0);
  // 550 km / 25 deg elevation: roughly 9-10 degrees of earth-central angle.
  EXPECT_NEAR(wide, 9.5, 2.0);
}

TEST(Constellation, FullShellCoversMidLatitudes) {
  const Constellation c;
  const double coverage = c.coverage_fraction(0.0, 25.0, 53.0, 6.0);
  EXPECT_GT(coverage, 0.95);  // 1584 satellites blanket |lat| < 53
}

TEST(Constellation, SparseShellHasGaps) {
  // Lower satellites see a smaller cap each, so the same 1584 satellites
  // leave gaps that the 550 km shell does not.
  const Constellation high;
  const Constellation low(150.0);
  const double coverage = low.coverage_fraction(0.0, 25.0, 53.0, 6.0);
  EXPECT_LT(coverage, high.coverage_fraction(0.0, 25.0, 53.0, 6.0));
  EXPECT_LT(coverage, 0.8);
}

TEST(StormDensity, AnchorsMatchDesign) {
  EXPECT_DOUBLE_EQ(storm_density_multiplier(gic::StormScenario{"quiet", 0.0,
                                                               40, 5, 0.01}),
                   1.0);
  // 1989-class roughly doubles density; Carrington ~10x.
  EXPECT_NEAR(storm_density_multiplier(gic::quebec_1989()), 2.1, 0.4);
  EXPECT_NEAR(storm_density_multiplier(gic::carrington_1859()), 10.0, 2.0);
}

TEST(DragModel, DensityExponentialInAltitude) {
  const double rho550 = density(550.0);
  const double rho625 = density(625.0);  // one scale height up
  EXPECT_NEAR(rho550 / rho625, std::numbers::e, 0.01);
  EXPECT_DOUBLE_EQ(density(550.0, 3.0), 3.0 * rho550);
  EXPECT_THROW(density(550.0, 0.0), std::invalid_argument);
}

TEST(DragModel, QuietDecayRateIsMetersPerDay) {
  const double rate = decay_rate_km_per_day(550.0);
  EXPECT_GT(rate, 0.001);  // > 1 m/day
  EXPECT_LT(rate, 0.1);    // < 100 m/day at 550 km, quiet sun
}

TEST(DragModel, DecayAcceleratesLowerDown) {
  EXPECT_GT(decay_rate_km_per_day(350.0), decay_rate_km_per_day(550.0));
}

TEST(DragModel, PassiveLifetimeShrinksWithStorm) {
  const double quiet = passive_lifetime_days(550.0, 1.0);
  const double storm = passive_lifetime_days(550.0, 10.0);
  EXPECT_GT(quiet, storm);
  EXPECT_GT(storm, 0.0);
  EXPECT_DOUBLE_EQ(passive_lifetime_days(150.0), 0.0);  // below floor
}

TEST(DragModel, StationKeepingHoldsQuietOrbit) {
  // Quiet: thrusters (0.35 km/day authority) dominate ~0.01 km/day drag.
  EXPECT_DOUBLE_EQ(net_altitude_loss_km(550.0, 1.0, 30.0), 0.0);
}

TEST(DragModel, ExtremeStormOverwhelmsLowShell) {
  // A 340 km shell (Starlink VLEO) under a 10x density storm loses
  // altitude despite station keeping.
  const double loss = net_altitude_loss_km(340.0, 10.0, 14.0);
  EXPECT_GT(loss, 0.0);
}

TEST(FleetImpact, CarringtonVsQuebecOrdering) {
  const Constellation shell(340.0);
  const auto carrington =
      evaluate_fleet_impact(shell, gic::carrington_1859(), 14.0);
  const auto quebec = evaluate_fleet_impact(shell, gic::quebec_1989(), 14.0);
  EXPECT_GT(carrington.decay_rate_storm_km_day,
            quebec.decay_rate_storm_km_day);
  EXPECT_GE(carrington.fleet_loss_fraction, quebec.fleet_loss_fraction);
  EXPECT_EQ(carrington.fleet_size, shell.size());
}

TEST(FleetImpact, HighShellSurvivesModerateStorm) {
  const Constellation shell;  // 550 km
  const auto impact =
      evaluate_fleet_impact(shell, gic::moderate_storm(), 7.0);
  EXPECT_TRUE(impact.station_keeping_holds);
  EXPECT_DOUBLE_EQ(impact.fleet_loss_fraction, 0.0);
}

TEST(FleetImpact, LossFractionBounded) {
  const Constellation shell(250.0);
  const auto impact =
      evaluate_fleet_impact(shell, gic::carrington_1859(), 30.0);
  EXPECT_GE(impact.fleet_loss_fraction, 0.0);
  EXPECT_LE(impact.fleet_loss_fraction, 1.0);
  EXPECT_GT(impact.fleet_loss_fraction, 0.5);  // §3.3's worst case
}

}  // namespace
}  // namespace solarnet::satellite
