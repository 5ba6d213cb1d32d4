#include "geo/distance.h"

#include <gtest/gtest.h>

#include <cmath>

namespace solarnet::geo {
namespace {

// Well-known reference distances (great circle, km).
TEST(Haversine, KnownCityPairs) {
  const GeoPoint nyc{40.71, -74.01};
  const GeoPoint london{51.51, -0.13};
  EXPECT_NEAR(haversine_km(nyc, london), 5570.0, 60.0);

  const GeoPoint sydney{-33.87, 151.21};
  const GeoPoint auckland{-36.85, 174.76};
  EXPECT_NEAR(haversine_km(sydney, auckland), 2156.0, 40.0);
}

TEST(Haversine, ZeroForCoincidentPoints) {
  const GeoPoint p{12.0, 34.0};
  EXPECT_DOUBLE_EQ(haversine_km(p, p), 0.0);
}

TEST(Haversine, SymmetricAndPositive) {
  const GeoPoint a{10.0, 20.0};
  const GeoPoint b{-30.0, 150.0};
  EXPECT_DOUBLE_EQ(haversine_km(a, b), haversine_km(b, a));
  EXPECT_GT(haversine_km(a, b), 0.0);
}

TEST(Haversine, AntipodalIsHalfCircumference) {
  const GeoPoint a{0.0, 0.0};
  const GeoPoint b{0.0, 180.0};
  EXPECT_NEAR(haversine_km(a, b), std::numbers::pi * kEarthRadiusKm, 1.0);
}

TEST(Haversine, EquatorDegreeLength) {
  // One degree of longitude at the equator is ~111.2 km.
  EXPECT_NEAR(haversine_km({0.0, 0.0}, {0.0, 1.0}), 111.2, 0.5);
}

TEST(Haversine, CrossesAntimeridianCorrectly) {
  // Fiji-ish to Samoa-ish across 180: short way, not around the world.
  const GeoPoint a{-18.0, 179.0};
  const GeoPoint b{-18.0, -179.0};
  EXPECT_LT(haversine_km(a, b), 250.0);
}

TEST(Destination, InvertsHaversine) {
  const GeoPoint start{37.77, -122.42};
  for (double bearing : {0.0, 45.0, 133.0, 270.0}) {
    for (double dist : {10.0, 500.0, 5000.0}) {
      const GeoPoint end = destination(start, bearing, dist);
      EXPECT_NEAR(haversine_km(start, end), dist, dist * 1e-9 + 1e-6);
    }
  }
}

TEST(Destination, ZeroDistanceStaysPut) {
  const GeoPoint p{10.0, 20.0};
  const GeoPoint q = destination(p, 77.0, 0.0);
  EXPECT_NEAR(q.lat_deg, p.lat_deg, 1e-12);
  EXPECT_NEAR(q.lon_deg, p.lon_deg, 1e-12);
}

TEST(Interpolate, EndpointsAndMidpoint) {
  const GeoPoint a{0.0, 0.0};
  const GeoPoint b{0.0, 90.0};
  const GeoPoint t0 = interpolate(a, b, 0.0);
  EXPECT_NEAR(t0.lat_deg, 0.0, 1e-9);
  EXPECT_NEAR(t0.lon_deg, 0.0, 1e-9);
  const GeoPoint t1 = interpolate(a, b, 1.0);
  EXPECT_NEAR(t1.lon_deg, 90.0, 1e-9);
  const GeoPoint mid = interpolate(a, b, 0.5);
  EXPECT_NEAR(mid.lon_deg, 45.0, 1e-9);
  EXPECT_NEAR(mid.lat_deg, 0.0, 1e-9);
}

TEST(Interpolate, ClampsT) {
  const GeoPoint a{10.0, 10.0};
  const GeoPoint b{20.0, 20.0};
  const GeoPoint lo = interpolate(a, b, -0.5);
  EXPECT_NEAR(lo.lat_deg, a.lat_deg, 1e-9);
  const GeoPoint hi = interpolate(a, b, 1.5);
  EXPECT_NEAR(hi.lat_deg, b.lat_deg, 1e-9);
}

TEST(Interpolate, CoincidentPoints) {
  const GeoPoint a{10.0, 10.0};
  const GeoPoint m = interpolate(a, a, 0.5);
  EXPECT_NEAR(m.lat_deg, 10.0, 1e-9);
  EXPECT_NEAR(m.lon_deg, 10.0, 1e-9);
}

TEST(Interpolate, DistanceIsProportional) {
  const GeoPoint a{40.0, -74.0};
  const GeoPoint b{51.0, 0.0};
  const double total = haversine_km(a, b);
  for (double t : {0.25, 0.5, 0.75}) {
    const GeoPoint p = interpolate(a, b, t);
    EXPECT_NEAR(haversine_km(a, p), t * total, total * 1e-6);
  }
}

TEST(SamplePath, IncludesEndpointsAndRespectsStep) {
  const GeoPoint a{0.0, 0.0};
  const GeoPoint b{0.0, 10.0};  // ~1112 km
  const auto path = sample_path(a, b, 100.0);
  ASSERT_GE(path.size(), 2u);
  EXPECT_NEAR(path.front().lon_deg, 0.0, 1e-9);
  EXPECT_NEAR(path.back().lon_deg, 10.0, 1e-9);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_LE(haversine_km(path[i - 1], path[i]), 100.0 + 1e-6);
  }
}

TEST(SamplePath, ShortSegmentIsJustEndpoints) {
  const auto path = sample_path({0.0, 0.0}, {0.0, 0.1}, 100.0);
  EXPECT_EQ(path.size(), 2u);
}

TEST(SamplePath, RejectsBadStep) {
  EXPECT_THROW(sample_path({0, 0}, {1, 1}, 0.0), std::invalid_argument);
  EXPECT_THROW(sample_path({0, 0}, {1, 1}, -5.0), std::invalid_argument);
}

TEST(SamplePath, PathLengthMatchesDirectDistance) {
  const GeoPoint a{35.0, 139.0};
  const GeoPoint b{37.0, -122.0};
  const auto path = sample_path(a, b, 50.0);
  // Every sample lies on the great circle: the detour through it is free.
  for (const GeoPoint& p : path) {
    EXPECT_NEAR(haversine_km(a, p) + haversine_km(p, b), haversine_km(a, b),
                1.0);
  }
}

TEST(RoadDistance, AlwaysAtLeastGreatCircle) {
  const GeoPoint a{40.0, -74.0};
  const GeoPoint b{41.9, -87.6};
  EXPECT_GT(road_distance_km(a, b), haversine_km(a, b));
}

TEST(RoadDistance, CircuityScaleSensitivity) {
  // DESIGN.md choice #3: the circuity profile is a knob. Scale 0 degrades
  // to the great circle; scale 1 is the published default; larger scales
  // only add detour, and repeater counts respond sub-linearly.
  const GeoPoint a{40.0, -74.0};
  const GeoPoint b{41.9, -87.6};
  const double gc = haversine_km(a, b);
  EXPECT_NEAR(road_distance_km(a, b, 0.0), gc, 1e-9);
  EXPECT_DOUBLE_EQ(road_distance_km(a, b, 1.0), road_distance_km(a, b));
  EXPECT_GT(road_distance_km(a, b, 2.0), road_distance_km(a, b, 1.0));
  // Negative scales clamp at the great circle (roads are never shorter).
  EXPECT_NEAR(road_distance_km(a, b, -5.0), gc, 1e-9);
  // A +/-20% circuity error moves an ~1150 km route by under 5% — the
  // repeater-count calibration is robust to the knob.
  const double base = road_distance_km(a, b, 1.0);
  EXPECT_LT(std::abs(road_distance_km(a, b, 1.2) - base) / base, 0.05);
  EXPECT_LT(std::abs(road_distance_km(a, b, 0.8) - base) / base, 0.05);
}

TEST(RoadDistance, CircuityShrinksWithDistance) {
  const GeoPoint base{39.0, -95.0};
  const double short_ratio =
      road_distance_km(base, destination(base, 90.0, 50.0)) / 50.0;
  const double long_ratio =
      road_distance_km(base, destination(base, 90.0, 2000.0)) / 2000.0;
  EXPECT_GT(short_ratio, long_ratio);
  EXPECT_NEAR(short_ratio, 1.45, 0.01);
  EXPECT_NEAR(long_ratio, 1.20, 0.01);
}

}  // namespace
}  // namespace solarnet::geo
