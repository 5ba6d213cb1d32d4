#include "gic/timeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/status.h"

namespace solarnet::gic {
namespace {

TEST(StormIntensity, RejectsBadProfile) {
  StormPhaseProfile bad;
  bad.recovery_tau_hours = 0.0;
  EXPECT_THROW(storm_dose_hours(bad, 1.0), std::invalid_argument);
  bad = StormPhaseProfile{};
  bad.total_hours = -1.0;
  EXPECT_THROW(storm_dose_hours(bad, 1.0), std::invalid_argument);
}

TEST(StormDose, MatchesClosedForms) {
  const StormPhaseProfile p;
  EXPECT_DOUBLE_EQ(storm_dose_hours(p, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(storm_dose_hours(p, 2.0), 1.0);  // triangle: 0.5*2*1
  EXPECT_DOUBLE_EQ(storm_dose_hours(p, 12.0), 11.0);  // + 10h plateau
  // Recovery adds tau*(1-e^{-t/tau}).
  EXPECT_NEAR(storm_dose_hours(p, 30.0), 11.0 + 18.0 * (1.0 - std::exp(-1.0)),
              1e-9);
}

TEST(StormDose, MonotoneAndSaturating) {
  const StormPhaseProfile p;
  double prev = -1.0;
  for (double h = 0.0; h <= 80.0; h += 4.0) {
    const double d = storm_dose_hours(p, h);
    EXPECT_GE(d, prev);
    prev = d;
  }
  EXPECT_DOUBLE_EQ(storm_dose_hours(p, 72.0), storm_dose_hours(p, 500.0));
}

TEST(DamageFraction, ZeroToOne) {
  const StormPhaseProfile p;
  EXPECT_DOUBLE_EQ(damage_fraction_by(p, 0.0), 0.0);
  EXPECT_NEAR(damage_fraction_by(p, p.total_hours), 1.0, 1e-12);
  // Most damage lands in the onset+main window: by hour 12, the dose is
  // 11 of ~28.2 peak-equivalent hours.
  EXPECT_NEAR(damage_fraction_by(p, 12.0), 11.0 / storm_dose_hours(p, 72.0),
              1e-12);
}

class TimelineSimTest : public ::testing::Test {
 protected:
  TimelineSimTest() : net_("tl") {
    const auto a = net_.add_node(
        {"A", {55.0, 0.0}, "", topo::NodeKind::kLandingPoint, true});
    const auto b = net_.add_node(
        {"B", {55.0, 20.0}, "", topo::NodeKind::kLandingPoint, true});
    const auto c = net_.add_node(
        {"C", {10.0, 0.0}, "", topo::NodeKind::kLandingPoint, true});
    const auto d = net_.add_node(
        {"D", {10.0, 20.0}, "", topo::NodeKind::kLandingPoint, true});
    topo::Cable hi;
    hi.name = "hi";
    hi.segments = {{a, b, 2000.0}};
    net_.add_cable(std::move(hi));
    topo::Cable lo;
    lo.name = "lo";
    lo.segments = {{c, d, 2000.0}};
    net_.add_cable(std::move(lo));
  }
  topo::InfrastructureNetwork net_;
};

TEST_F(TimelineSimTest, SeriesEndsAtAnalyticExpectation) {
  const sim::FailureSimulator simulator(net_, {});
  const auto s1 = LatitudeBandFailureModel::s1();
  const StormPhaseProfile profile;
  const auto series = failure_time_series(simulator, s1, profile, 2.0);
  ASSERT_GE(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series.front().expected_cables_failed, 0.0);
  double analytic = 0.0;
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    analytic += simulator.cable_death_probability(c, s1);
  }
  EXPECT_NEAR(series.back().expected_cables_failed, analytic, 1e-9);
  EXPECT_NEAR(series.back().fraction_of_final, 1.0, 1e-9);
}

TEST_F(TimelineSimTest, SeriesIsMonotone) {
  const sim::FailureSimulator simulator(net_, {});
  const UniformFailureModel m(0.05);
  const auto series =
      failure_time_series(simulator, m, StormPhaseProfile{}, 1.0);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].expected_cables_failed,
              series[i - 1].expected_cables_failed);
  }
}

TEST_F(TimelineSimTest, MostDamageInMainPhase) {
  const sim::FailureSimulator simulator(net_, {});
  const UniformFailureModel m(0.05);
  const StormPhaseProfile profile;
  const auto series = failure_time_series(simulator, m, profile, 1.0);
  // By the end of the main phase (hour 12 of 72), well over a third of the
  // final expected damage has landed.
  double at12 = 0.0;
  for (const auto& pt : series) {
    if (pt.hours == 12.0) at12 = pt.fraction_of_final;
  }
  EXPECT_GT(at12, 0.35);
}

TEST_F(TimelineSimTest, StepValidation) {
  const sim::FailureSimulator simulator(net_, {});
  const UniformFailureModel m(0.05);
  EXPECT_THROW(failure_time_series(simulator, m, StormPhaseProfile{}, 0.0),
               std::invalid_argument);
}

TEST(KpDose, ShareIsNormalizedAndMonotone) {
  // The Gannon-storm shape: quiet lead-in, G5 peak, slow decay.
  const std::vector<double> hours = {0.0, 3.0, 6.0, 9.0, 12.0, 15.0};
  const std::vector<double> kp = {4.33, 8.0, 9.0, 8.0, 6.33, 4.0};
  const std::vector<double> share = dose_share_from_kp(hours, kp);
  ASSERT_EQ(share.size(), hours.size());
  EXPECT_EQ(share.front(), 0.0);  // first interval starts the integral
  EXPECT_EQ(share.back(), 1.0);   // exactly — TimelineConfig requires it
  for (std::size_t i = 1; i < share.size(); ++i) {
    EXPECT_GE(share[i], share[i - 1]);
    EXPECT_GE(share[i], 0.0);
    EXPECT_LE(share[i], 1.0);
  }
  // Most of the dose lands around the Kp 9 peak, not the quiet tail.
  EXPECT_GT(share[3], 0.75);
}

TEST(KpDose, QuietSamplesContributeNothing) {
  // Kp at or below quiet_kp has zero intensity: the share is flat across
  // the quiet prefix and only rises once the storm threshold is crossed.
  const std::vector<double> hours = {0.0, 3.0, 6.0, 9.0};
  const std::vector<double> kp = {2.0, 4.0, 9.0, 2.0};
  const std::vector<double> share = dose_share_from_kp(hours, kp);
  EXPECT_EQ(share[0], 0.0);
  EXPECT_EQ(share[1], 0.0);  // both endpoints of [0,3] are quiet
  EXPECT_GT(share[2], 0.0);
}

TEST(KpDose, RejectsBadInputs) {
  const std::vector<double> hours = {0.0, 3.0, 6.0};
  const std::vector<double> kp = {5.0, 9.0, 5.0};

  const auto expect_error = [](auto&& fn, util::ErrorCode code,
                               const std::string& field) {
    try {
      fn();
      ADD_FAILURE() << "expected util::Error, field " << field;
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), code);
      EXPECT_EQ(e.context().field, field);
    }
  };

  expect_error([&] { dose_share_from_kp(hours, kp, 9.0); },
               util::ErrorCode::kInvalidArgument, "quiet_kp");
  expect_error([&] { dose_share_from_kp(hours, kp, -1.0); },
               util::ErrorCode::kInvalidArgument, "quiet_kp");

  const std::vector<double> short_kp = {5.0, 9.0};
  EXPECT_THROW(dose_share_from_kp(hours, short_kp), util::Error);

  const std::vector<double> one_hour = {0.0};
  const std::vector<double> one_kp = {9.0};
  EXPECT_THROW(dose_share_from_kp(one_hour, one_kp), util::Error);

  const std::vector<double> backwards = {0.0, 3.0, 2.0};
  expect_error([&] { dose_share_from_kp(backwards, kp); },
               util::ErrorCode::kInvalidData, "hours");

  const std::vector<double> out_of_range = {5.0, 9.5, 5.0};
  expect_error([&] { dose_share_from_kp(hours, out_of_range); },
               util::ErrorCode::kInvalidData, "kp");

  // All-quiet series: nothing to normalize against.
  const std::vector<double> calm = {1.0, 2.0, 1.0};
  expect_error([&] { dose_share_from_kp(hours, calm); },
               util::ErrorCode::kInvalidData, "kp");
}

}  // namespace
}  // namespace solarnet::gic
