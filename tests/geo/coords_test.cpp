#include "geo/coords.h"

#include <gtest/gtest.h>

#include <cmath>

namespace solarnet::geo {
namespace {

TEST(AngleConversion, RoundTrip) {
  EXPECT_NEAR(rad_to_deg(deg_to_rad(37.5)), 37.5, 1e-12);
  EXPECT_NEAR(deg_to_rad(180.0), std::numbers::pi, 1e-12);
  EXPECT_NEAR(rad_to_deg(std::numbers::pi / 2.0), 90.0, 1e-12);
}

TEST(NormalizeLongitude, WrapsIntoRange) {
  EXPECT_DOUBLE_EQ(normalize_longitude(0.0), 0.0);
  EXPECT_DOUBLE_EQ(normalize_longitude(190.0), -170.0);
  EXPECT_DOUBLE_EQ(normalize_longitude(-190.0), 170.0);
  EXPECT_DOUBLE_EQ(normalize_longitude(360.0), 0.0);
  EXPECT_DOUBLE_EQ(normalize_longitude(540.0), 180.0 - 360.0);
  EXPECT_DOUBLE_EQ(normalize_longitude(-180.0), -180.0);
  // +180 wraps to -180 (half-open interval).
  EXPECT_DOUBLE_EQ(normalize_longitude(180.0), -180.0);
}

TEST(GeoPoint, AbsLat) {
  EXPECT_DOUBLE_EQ((GeoPoint{-51.0, 0.0}).abs_lat(), 51.0);
  EXPECT_DOUBLE_EQ((GeoPoint{12.5, 0.0}).abs_lat(), 12.5);
}

TEST(Validated, NormalizesLongitude) {
  const GeoPoint p = validated({10.0, 200.0});
  EXPECT_DOUBLE_EQ(p.lat_deg, 10.0);
  EXPECT_DOUBLE_EQ(p.lon_deg, -160.0);
}

TEST(Validated, RejectsBadLatitude) {
  EXPECT_THROW(validated({91.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(validated({-90.5, 0.0}), std::invalid_argument);
  EXPECT_NO_THROW(validated({90.0, 0.0}));
  EXPECT_NO_THROW(validated({-90.0, 0.0}));
}

TEST(Validated, RejectsNonFinite) {
  EXPECT_THROW(validated({std::nan(""), 0.0}), std::invalid_argument);
  EXPECT_THROW(validated({0.0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
}

TEST(IsValid, MirrorsValidated) {
  EXPECT_TRUE(is_valid({45.0, 90.0}));
  EXPECT_FALSE(is_valid({95.0, 0.0}));
  EXPECT_FALSE(is_valid({std::nan(""), 0.0}));
}

TEST(UnitVector, RoundTripsAtVariousPoints) {
  for (const GeoPoint p : {GeoPoint{0.0, 0.0}, GeoPoint{45.0, 45.0},
                           GeoPoint{-60.0, 170.0}, GeoPoint{89.0, -120.0}}) {
    const GeoPoint q = from_unit_vector(to_unit_vector(p));
    EXPECT_NEAR(q.lat_deg, p.lat_deg, 1e-9);
    EXPECT_NEAR(q.lon_deg, p.lon_deg, 1e-9);
  }
}

TEST(UnitVector, HasUnitNorm) {
  const Vec3 v = to_unit_vector({33.0, -110.0});
  EXPECT_NEAR(v.x * v.x + v.y * v.y + v.z * v.z, 1.0, 1e-12);
}

TEST(UnitVector, PolesMapToZAxis) {
  const Vec3 north = to_unit_vector({90.0, 0.0});
  EXPECT_NEAR(north.z, 1.0, 1e-12);
  EXPECT_NEAR(north.x, 0.0, 1e-12);
  const Vec3 south = to_unit_vector({-90.0, 57.0});
  EXPECT_NEAR(south.z, -1.0, 1e-12);
}

TEST(FromUnitVector, ZeroVectorIsSafe) {
  const GeoPoint p = from_unit_vector({0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(p.lat_deg, 0.0);
  EXPECT_DOUBLE_EQ(p.lon_deg, 0.0);
}

}  // namespace
}  // namespace solarnet::geo
