#include "core/mitigation.h"

#include <gtest/gtest.h>

#include "datasets/submarine.h"

namespace solarnet::core {
namespace {

const topo::InfrastructureNetwork& small_net() {
  static const auto net = [] {
    datasets::SubmarineConfig cfg;
    cfg.total_cables = 150;
    cfg.target_landing_points = 380;
    cfg.cables_without_length = 0;
    return datasets::make_submarine_network(cfg);
  }();
  return net;
}

MitigationPlan default_plan() {
  MitigationPlan plan;
  plan.candidate_cables = TopologyPlanner::default_low_latitude_candidates();
  plan.cables_to_build = 2;
  return plan;
}

TEST(Mitigation, PackageReducesCorridorRisk) {
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const MitigationReport r =
      evaluate_mitigation(small_net(), s1, default_plan());
  EXPECT_EQ(r.cables_built.size(), 2u);
  EXPECT_LE(r.corridor_cutoff_after, r.corridor_cutoff_before + 1e-12);
  EXPECT_GE(r.expected_cables_saved(), 0.0);
}

TEST(Mitigation, BuildingMoreCablesHelpsMore) {
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  MitigationPlan small = default_plan();
  small.cables_to_build = 1;
  MitigationPlan big = default_plan();
  big.cables_to_build = 4;
  const auto r_small = evaluate_mitigation(small_net(), s1, small);
  const auto r_big = evaluate_mitigation(small_net(), s1, big);
  EXPECT_LE(r_big.corridor_cutoff_after, r_small.corridor_cutoff_after + 1e-12);
  EXPECT_EQ(r_big.cables_built.size(), 4u);
}

TEST(Mitigation, ServiceAvailabilityEvaluatedWhenGiven) {
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  MitigationPlan plan = default_plan();
  plan.has_service = true;
  plan.service = services::ServiceSpec{
      "global",
      {{40.7, -74.0}, {50.1, 8.7}, {1.35, 103.8}, {-23.5, -46.6}},
      1};
  const auto r = evaluate_mitigation(small_net(), s2, plan);
  EXPECT_GT(r.service_availability_before, 0.0);
  EXPECT_GT(r.service_availability_after, 0.0);
  // The augmented network can only help (same seed, more redundancy).
  EXPECT_GE(r.service_availability_after,
            r.service_availability_before - 0.15);
}

TEST(Mitigation, NoServiceMeansZeroAvailabilityFields) {
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto r = evaluate_mitigation(small_net(), s1, default_plan());
  EXPECT_DOUBLE_EQ(r.service_availability_before, 0.0);
  EXPECT_DOUBLE_EQ(r.service_availability_after, 0.0);
}

TEST(Mitigation, UnknownCandidateEndpointThrows) {
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  MitigationPlan plan;
  plan.candidate_cables = {{"Atlantis", "Lisbon", 0.0}};
  plan.cables_to_build = 1;
  EXPECT_THROW(evaluate_mitigation(small_net(), s1, plan),
               std::invalid_argument);
}

TEST(Mitigation, BaseNetworkUntouched) {
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const std::size_t cables_before = small_net().cable_count();
  evaluate_mitigation(small_net(), s1, default_plan());
  EXPECT_EQ(small_net().cable_count(), cables_before);
}

}  // namespace
}  // namespace solarnet::core
