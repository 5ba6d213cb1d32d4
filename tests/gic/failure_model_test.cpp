#include "gic/failure_model.h"

#include <gtest/gtest.h>

namespace solarnet::gic {
namespace {

RepeaterContext ctx(double lat, double cable_max = 0.0) {
  return {{lat, 0.0}, cable_max == 0.0 ? std::abs(lat) : cable_max};
}

TEST(UniformModel, ConstantProbability) {
  const UniformFailureModel m(0.25);
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0)), 0.25);
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(80.0)), 0.25);
  EXPECT_NE(m.name().find("0.25"), std::string::npos);
}

TEST(UniformModel, RejectsOutOfRange) {
  EXPECT_THROW(UniformFailureModel(-0.1), std::invalid_argument);
  EXPECT_THROW(UniformFailureModel(1.1), std::invalid_argument);
  EXPECT_NO_THROW(UniformFailureModel(0.0));
  EXPECT_NO_THROW(UniformFailureModel(1.0));
}

TEST(BandModel, S1MatchesPaper) {
  // S1 = [1, 0.1, 0.01] over bands (>60, 40-60, <40) keyed on the cable's
  // highest-|latitude| endpoint.
  const auto m = LatitudeBandFailureModel::s1();
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 65.0)), 1.0);
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 50.0)), 0.1);
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 30.0)), 0.01);
}

TEST(BandModel, S2MatchesPaper) {
  const auto m = LatitudeBandFailureModel::s2();
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 65.0)), 0.1);
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 50.0)), 0.01);
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 30.0)), 0.001);
}

TEST(BandModel, UsesCableLatitudeNotRepeaterLatitude) {
  const auto m = LatitudeBandFailureModel::s1();
  // Repeater at the equator, but the cable tops out at 65: high band.
  RepeaterContext c;
  c.location = {0.0, 0.0};
  c.cable_max_abs_lat_deg = 65.0;
  EXPECT_DOUBLE_EQ(m.failure_probability(c), 1.0);
}

TEST(BandModel, BoundariesAreStrict) {
  const auto m = LatitudeBandFailureModel::s1();
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 40.0)), 0.01);  // L <= 40
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 40.0001)), 0.1);
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 60.0)), 0.1);  // L <= 60
  EXPECT_DOUBLE_EQ(m.failure_probability(ctx(0.0, 60.0001)), 1.0);
}

TEST(BandModel, RejectsBadProbabilities) {
  EXPECT_THROW(LatitudeBandFailureModel("bad", {1.5, 0.1, 0.01}),
               std::invalid_argument);
}

TEST(PerRepeaterModel, UsesRepeaterLatitude) {
  const PerRepeaterBandModel m("per-repeater", {1.0, 0.1, 0.01});
  RepeaterContext c;
  c.location = {0.0, 0.0};
  c.cable_max_abs_lat_deg = 65.0;  // ignored by this model
  EXPECT_DOUBLE_EQ(m.failure_probability(c), 0.01);
  c.location = {65.0, 0.0};
  c.cable_max_abs_lat_deg = 0.0;
  EXPECT_DOUBLE_EQ(m.failure_probability(c), 1.0);
}

// The paper's 40°/60° band rule (§4.3.3) on a point's own latitude, as
// PerRepeaterBandModel applies it: one probability per band.
double band_of(double lat_deg) {
  const PerRepeaterBandModel m("bands", {1.0, 0.5, 0.0});
  return m.failure_probability({{lat_deg, 10.0}, 0.0});
}

TEST(LatitudeBand, BoundariesMatchPaper) {
  EXPECT_EQ(band_of(0.0), 0.0);
  EXPECT_EQ(band_of(39.99), 0.0);
  EXPECT_EQ(band_of(40.0), 0.0);  // 40 < L strict
  EXPECT_EQ(band_of(40.01), 0.5);
  EXPECT_EQ(band_of(60.0), 0.5);
  EXPECT_EQ(band_of(60.01), 1.0);
  EXPECT_EQ(band_of(90.0), 1.0);
}

TEST(LatitudeBand, SymmetricInHemisphere) {
  EXPECT_EQ(band_of(-45.0), 0.5);
  EXPECT_EQ(band_of(-65.0), 1.0);
  EXPECT_EQ(band_of(-10.0), 0.0);
}

TEST(FieldDrivenModel, MonotoneInLatitude) {
  // An ocean boost of 1 lets the pure latitude profile show through (the
  // meridian crosses land and ocean alternately).
  const FieldDrivenFailureModel m{
      GeoelectricFieldModel(carrington_1859(), 1.0)};
  double prev = -1.0;
  for (double lat = 0.0; lat <= 80.0; lat += 10.0) {
    const double p = m.failure_probability(ctx(lat));
    EXPECT_GE(p, prev - 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(FieldDrivenModel, OceanRepeatersAtHigherRisk) {
  const FieldDrivenFailureModel m{GeoelectricFieldModel(carrington_1859())};
  RepeaterContext land;
  land.location = {50.5, 9.0};  // Germany
  RepeaterContext ocean;
  ocean.location = {50.5, -35.0};  // mid-Atlantic, same latitude
  EXPECT_GT(m.failure_probability(ocean), m.failure_probability(land));
}

TEST(FieldDrivenModel, StrongStormKillsHighLatitudes) {
  const FieldDrivenFailureModel m{GeoelectricFieldModel(carrington_1859())};
  EXPECT_GT(m.failure_probability(ctx(70.0)), 0.5);
  EXPECT_LT(m.failure_probability(ctx(0.0)), 0.2);
}

TEST(FieldDrivenModel, WeakStormMostlyHarmless) {
  const FieldDrivenFailureModel m{GeoelectricFieldModel(moderate_storm())};
  EXPECT_LT(m.failure_probability(ctx(30.0)), 0.05);
}

TEST(FieldDrivenModel, RejectsBadParams) {
  FieldDrivenFailureModel::Params bad;
  bad.overload_at_half = 0.0;
  EXPECT_THROW(
      FieldDrivenFailureModel(GeoelectricFieldModel(quebec_1989()), bad),
      std::invalid_argument);
}

TEST(FieldDrivenModel, NameMentionsStorm) {
  const FieldDrivenFailureModel m{GeoelectricFieldModel(quebec_1989())};
  EXPECT_NE(m.name().find("Quebec"), std::string::npos);
}

TEST(Factories, ProduceWorkingModels) {
  EXPECT_DOUBLE_EQ(make_uniform(0.5)->failure_probability(ctx(0.0)), 0.5);
  EXPECT_DOUBLE_EQ(make_s1()->failure_probability(ctx(0.0, 70.0)), 1.0);
  EXPECT_DOUBLE_EQ(make_s2()->failure_probability(ctx(0.0, 70.0)), 0.1);
}

}  // namespace
}  // namespace solarnet::gic
