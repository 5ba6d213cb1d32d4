#include "gic/efield.h"

#include <gtest/gtest.h>

namespace solarnet::gic {
namespace {

TEST(LatitudeFactor, MonotoneInAbsLatitude) {
  const GeoelectricFieldModel model(carrington_1859());
  double prev = 0.0;
  for (double lat = 0.0; lat <= 90.0; lat += 5.0) {
    const double f = model.latitude_factor(lat);
    EXPECT_GE(f, prev - 1e-12);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST(LatitudeFactor, SymmetricAcrossEquator) {
  const GeoelectricFieldModel model(ny_railroad_1921());
  for (double lat : {10.0, 35.0, 55.0, 70.0}) {
    EXPECT_DOUBLE_EQ(model.latitude_factor(lat),
                     model.latitude_factor(-lat));
  }
}

TEST(LatitudeFactor, HalfAtBoundary) {
  const StormScenario storm = quebec_1989();
  const GeoelectricFieldModel model(storm);
  const double at_boundary = model.latitude_factor(storm.boundary_deg);
  const double expected =
      storm.equatorial_floor + (1.0 - storm.equatorial_floor) * 0.5;
  EXPECT_NEAR(at_boundary, expected, 1e-9);
}

TEST(LatitudeFactor, EquatorNearFloor) {
  const StormScenario storm = carrington_1859();
  const GeoelectricFieldModel model(storm);
  // Small but non-zero equatorial GIC (the ramp tail adds a little to the
  // floor because Carrington's boundary sits at only 20 deg).
  EXPECT_GT(model.latitude_factor(0.0), 0.0);
  EXPECT_LT(model.latitude_factor(0.0), 0.15);
  // A high-boundary storm's equator sits essentially at the floor.
  const StormScenario far = moderate_storm();
  const GeoelectricFieldModel far_model(far);
  EXPECT_NEAR(far_model.latitude_factor(0.0), far.equatorial_floor, 1e-4);
}

TEST(Field, ScalesWithPeak) {
  const GeoelectricFieldModel weak(quebec_1989());
  const GeoelectricFieldModel strong(carrington_1859());
  const geo::GeoPoint oslo{59.9, 10.7};
  EXPECT_GT(strong.field_v_per_km_land(oslo), weak.field_v_per_km_land(oslo));
}

TEST(Field, OceanBoostApplied) {
  const GeoelectricFieldModel model(carrington_1859());
  const geo::GeoPoint mid_atlantic{45.0, -35.0};  // open ocean
  const geo::GeoPoint germany{50.5, 9.0};         // land
  const double ocean = model.field_v_per_km(mid_atlantic);
  const double ocean_land_only = model.field_v_per_km_land(mid_atlantic);
  EXPECT_NEAR(ocean / ocean_land_only, 1.8, 1e-9);
  EXPECT_NEAR(model.field_v_per_km(germany),
              model.field_v_per_km_land(germany), 1e-12);
}

TEST(Field, OceanBoostConfigurable) {
  const GeoelectricFieldModel model(carrington_1859(), 3.0);
  const geo::GeoPoint ocean{45.0, -35.0};
  EXPECT_NEAR(model.field_v_per_km(ocean) / model.field_v_per_km_land(ocean),
              3.0, 1e-9);
}

TEST(Field, HighLatitudeApproachesPeak) {
  const StormScenario storm = carrington_1859();
  const GeoelectricFieldModel model(storm);
  EXPECT_NEAR(model.field_v_per_km_land({75.0, 20.0}),
              storm.peak_field_v_per_km, 0.05 * storm.peak_field_v_per_km);
}

TEST(Field, StormAccessor) {
  const GeoelectricFieldModel model(quebec_1989());
  EXPECT_EQ(model.storm().name, quebec_1989().name);
}

}  // namespace
}  // namespace solarnet::gic
