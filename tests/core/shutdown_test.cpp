#include "core/shutdown.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace solarnet::core {
namespace {

topo::InfrastructureNetwork risky_net(std::size_t cables) {
  topo::InfrastructureNetwork net("risky");
  for (std::size_t i = 0; i <= cables; ++i) {
    net.add_node({"N" + std::to_string(i),
                  {55.0, static_cast<double>(i) * 3.0},
                  "",
                  topo::NodeKind::kLandingPoint,
                  true});
  }
  for (std::size_t i = 0; i < cables; ++i) {
    topo::Cable c;
    c.name = "C" + std::to_string(i);
    c.segments = {{static_cast<topo::NodeId>(i),
                   static_cast<topo::NodeId>(i + 1),
                   1000.0 + 500.0 * static_cast<double>(i)}};
    net.add_cable(std::move(c));
  }
  return net;
}

TEST(ShutdownAdjustedModel, ScalesProbability) {
  const gic::UniformFailureModel base(0.4);
  const ShutdownAdjustedModel off(base, 0.5);
  gic::RepeaterContext ctx;
  EXPECT_DOUBLE_EQ(off.failure_probability(ctx), 0.2);
  EXPECT_NE(off.name().find("powered off"), std::string::npos);
}

TEST(EvaluateShutdown, PlanReducesExpectedFailures) {
  const auto net = risky_net(10);
  const gic::UniformFailureModel m(0.05);
  ShutdownPolicy policy;
  policy.lead_time_hours = 13.0;  // budget: 26 >= all 10 cables
  const ShutdownOutcome out = evaluate_shutdown(net, m, policy);
  EXPECT_EQ(out.cables_shut_down, 10u);
  EXPECT_GT(out.expected_failures_no_action, 0.0);
  EXPECT_LT(out.expected_failures_with_plan, out.expected_failures_no_action);
  EXPECT_GT(out.expected_cables_saved(), 0.0);
}

TEST(EvaluateShutdown, LeadTimeLimitsBudget) {
  const auto net = risky_net(10);
  const gic::UniformFailureModel m(0.05);
  ShutdownPolicy policy;
  policy.lead_time_hours = 1.0;
  const ShutdownOutcome out = evaluate_shutdown(net, m, policy);
  EXPECT_EQ(out.cables_shut_down, 2u);
}

TEST(EvaluateShutdown, PrioritizationBeatsArbitraryOrder) {
  const auto net = risky_net(10);  // longer cables = more repeaters = riskier
  const gic::UniformFailureModel m(0.05);
  ShutdownPolicy prioritized;
  prioritized.lead_time_hours = 1.5;
  prioritized.priority = ShutdownPriority::kByBenefit;
  ShutdownPolicy naive = prioritized;
  naive.priority = ShutdownPriority::kNone;  // shuts cable ids 0..2 (shortest)
  const ShutdownOutcome p = evaluate_shutdown(net, m, prioritized);
  const ShutdownOutcome n = evaluate_shutdown(net, m, naive);
  EXPECT_LT(p.expected_failures_with_plan, n.expected_failures_with_plan);
}

TEST(EvaluateShutdown, BenefitBeatsRawRiskOnSaturatedCables) {
  // Mix certain-death cables (shutdown can't help) with mid-risk cables
  // (where it can): benefit ordering must save more than risk ordering.
  topo::InfrastructureNetwork net("mix");
  for (std::size_t i = 0; i <= 6; ++i) {
    net.add_node({"N" + std::to_string(i),
                  {55.0, static_cast<double>(i) * 4.0},
                  "",
                  topo::NodeKind::kLandingPoint,
                  true});
  }
  auto add = [&](std::size_t i, double len) {
    topo::Cable c;
    c.name = "C" + std::to_string(i);
    c.segments = {{static_cast<topo::NodeId>(i),
                   static_cast<topo::NodeId>(i + 1), len}};
    net.add_cable(std::move(c));
  };
  add(0, 30000.0);  // saturated: dies either way at p=0.05
  add(1, 30000.0);
  add(2, 30000.0);
  add(3, 1000.0);  // mid-risk: shutdown helps
  add(4, 1000.0);
  add(5, 1000.0);
  const gic::UniformFailureModel m(0.05);
  ShutdownPolicy by_benefit;
  by_benefit.lead_time_hours = 1.5;
  by_benefit.priority = ShutdownPriority::kByBenefit;
  ShutdownPolicy by_risk = by_benefit;
  by_risk.priority = ShutdownPriority::kByRisk;
  const ShutdownOutcome benefit = evaluate_shutdown(net, m, by_benefit);
  const ShutdownOutcome risk = evaluate_shutdown(net, m, by_risk);
  EXPECT_GT(benefit.expected_cables_saved(),
            risk.expected_cables_saved() + 0.1);
}

TEST(EvaluateShutdown, ProtectionIsOnlyPartial) {
  // §5.2: powering off provides limited protection — saved cables must be
  // strictly less than the no-action expected failures.
  const auto net = risky_net(8);
  const gic::UniformFailureModel m(0.2);
  const ShutdownOutcome out = evaluate_shutdown(net, m, ShutdownPolicy{});
  EXPECT_GT(out.expected_failures_with_plan, 0.0);
  EXPECT_LT(out.expected_cables_saved(), out.expected_failures_no_action);
}

TEST(EvaluateShutdown, SumsThePlanTable) {
  const auto net = risky_net(6);
  const gic::UniformFailureModel m(0.1);
  ShutdownPolicy policy;
  policy.lead_time_hours = 1.0;
  const ShutdownOutcome out = evaluate_shutdown(net, m, policy);
  const sim::FailureSimulator simulator(net, {});
  const ShutdownPlan plan = plan_shutdown(simulator, m, policy);
  ASSERT_EQ(plan.cables.size(), 2u);
  EXPECT_EQ(out.cables_shut_down, plan.cables.size());
  double with_plan = 0.0;
  for (double p : plan.table.probability) with_plan += p;
  EXPECT_EQ(out.expected_failures_with_plan, with_plan);
}

TEST(PlanShutdown, BudgetIsClampedToTheCableCount) {
  const auto net = risky_net(5);
  const sim::FailureSimulator simulator(net, {});
  const gic::UniformFailureModel m(0.1);
  ShutdownPolicy policy;
  EXPECT_EQ(plan_shutdown(simulator, m, policy).cables.size(), 5u);
  // The quotient overflows to +inf.
  policy.lead_time_hours = std::numeric_limits<double>::max();
  EXPECT_EQ(plan_shutdown(simulator, m, policy).cables.size(), 5u);
  policy.lead_time_hours = 0.0;
  EXPECT_TRUE(plan_shutdown(simulator, m, policy).cables.empty());
}

TEST(PlanShutdown, RejectsOutOfRangePolicies) {
  const auto net = risky_net(3);
  const sim::FailureSimulator simulator(net, {});
  const gic::UniformFailureModel m(0.1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double lead_time_hours : {nan, -1.0, inf}) {
    ShutdownPolicy policy;
    policy.lead_time_hours = lead_time_hours;
    try {
      plan_shutdown(simulator, m, policy);
      FAIL() << lead_time_hours << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("lead_time_hours"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(evaluate_shutdown(net, m, policy), std::invalid_argument);
  }
}

}  // namespace
}  // namespace solarnet::core
