#include "gic/induction.h"

#include <gtest/gtest.h>

#include "geo/distance.h"

namespace solarnet::gic {
namespace {

class InductionTest : public ::testing::Test {
 protected:
  InductionTest() : net_("t") {
    // High-latitude east-west cable (Oslo-ish to Helsinki-ish) and an
    // equatorial cable of equal great-circle span.
    n_oslo_ = net_.add_node(
        {"Oslo", {60.0, 10.0}, "NO", topo::NodeKind::kLandingPoint, true});
    n_hel_ = net_.add_node(
        {"Helsinki", {60.0, 25.0}, "FI", topo::NodeKind::kLandingPoint, true});
    // The equatorial pair spans half the longitude so its great-circle
    // length matches the 60N pair (cos 60 = 0.5) — same length, different
    // latitude, which is exactly what the comparison tests need.
    n_eq_a_ = net_.add_node(
        {"EqA", {0.0, 10.0}, "", topo::NodeKind::kLandingPoint, true});
    n_eq_b_ = net_.add_node(
        {"EqB", {0.0, 17.5}, "", topo::NodeKind::kLandingPoint, true});
    topo::Cable north;
    north.name = "north";
    north.segments = {{n_oslo_, n_hel_, 0.0}};
    north.segments[0].length_km =
        geo::haversine_km(net_.node(n_oslo_).location,
                          net_.node(n_hel_).location);
    north_ = net_.add_cable(std::move(north));
    topo::Cable eq;
    eq.name = "equator";
    eq.segments = {{n_eq_a_, n_eq_b_, 0.0}};
    eq_ = net_.add_cable(std::move(eq));
  }

  topo::InfrastructureNetwork net_;
  topo::NodeId n_oslo_{}, n_hel_{}, n_eq_a_{}, n_eq_b_{};
  topo::CableId north_{}, eq_{};
};

TEST_F(InductionTest, HighLatitudeCableSeesMorePotential) {
  const GeoelectricFieldModel field(carrington_1859());
  const auto north = compute_cable_induction(net_, north_, field);
  const auto eq = compute_cable_induction(net_, eq_, field);
  EXPECT_GT(north.total_potential_v, 3.0 * eq.total_potential_v);
  EXPECT_GT(north.peak_gic_amp, eq.peak_gic_amp);
}

TEST_F(InductionTest, PotentialScalesWithField) {
  const GeoelectricFieldModel weak(quebec_1989());
  const GeoelectricFieldModel strong(carrington_1859());
  const auto w = compute_cable_induction(net_, north_, weak);
  const auto s = compute_cable_induction(net_, north_, strong);
  EXPECT_GT(s.total_potential_v, w.total_potential_v);
  // Field ratio is 10x; potential ratio should be in the same ballpark
  // (boundary shapes differ slightly).
  EXPECT_NEAR(s.total_potential_v / w.total_potential_v, 10.0, 3.5);
}

TEST_F(InductionTest, PeakGicNearFieldOverResistance) {
  // For a uniform field E over a section, I = E / R per km — length cancels.
  const GeoelectricFieldModel field(carrington_1859());
  const auto r = compute_cable_induction(net_, north_, field);
  const double e_mid =
      field.field_v_per_km(geo::interpolate(net_.node(n_oslo_).location,
                                            net_.node(n_hel_).location, 0.5));
  EXPECT_NEAR(r.peak_gic_amp, e_mid / 0.8, 0.35 * e_mid / 0.8);
}

TEST_F(InductionTest, CarringtonOverloadIsTensToHundredFold) {
  // §3.2: storm GIC ~100x the 1.1 A operating current. Our default params
  // should land in the tens-to-hundreds range at high latitude.
  const GeoelectricFieldModel field(carrington_1859());
  const auto r = compute_cable_induction(net_, north_, field);
  EXPECT_GT(r.overload_factor, 10.0);
  EXPECT_LT(r.overload_factor, 300.0);
}

TEST_F(InductionTest, GroundingIntervalLimitsSectionPotential) {
  const GeoelectricFieldModel field(carrington_1859());
  // One section vs many sections.
  const auto c = compute_cable_induction(net_, north_, field, 10000.0);
  const auto f = compute_cable_induction(net_, north_, field, 100.0);
  EXPECT_GT(c.max_section_potential_v, f.max_section_potential_v);
  // Total potential is a path integral — independent of grounding.
  EXPECT_NEAR(c.total_potential_v, f.total_potential_v, 1e-6);
}

TEST_F(InductionTest, MeanderStretchIncreasesPotential) {
  // A cable whose stated length is twice the great circle integrates twice
  // the potential.
  topo::Cable stretched;
  stretched.name = "stretched";
  const double gc = geo::haversine_km(net_.node(n_oslo_).location,
                                      net_.node(n_hel_).location);
  stretched.segments = {{n_oslo_, n_hel_, 2.0 * gc}};
  const topo::CableId id = net_.add_cable(std::move(stretched));
  const GeoelectricFieldModel field(carrington_1859());
  const auto base = compute_cable_induction(net_, north_, field);
  const auto stretched_r = compute_cable_induction(net_, id, field);
  EXPECT_NEAR(stretched_r.total_potential_v / base.total_potential_v, 2.0,
              0.1);
}

TEST_F(InductionTest, InvalidParamsThrow) {
  const GeoelectricFieldModel field(quebec_1989());
  EXPECT_THROW(compute_cable_induction(net_, north_, field, -1.0),
               std::invalid_argument);
}

TEST_F(InductionTest, NetworkWideComputation) {
  const GeoelectricFieldModel field(carrington_1859());
  const auto all = compute_network_induction(net_, field);
  EXPECT_EQ(all.size(), net_.cable_count());
  EXPECT_GT(all[north_].total_potential_v, 0.0);
}

}  // namespace
}  // namespace solarnet::gic
