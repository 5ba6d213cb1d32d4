#include "core/shutdown.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace solarnet::core {

namespace {

// Operational cost of a controlled cable shutdown.
constexpr double kHoursPerCable = 0.5;
// Multiplier on repeater failure probability for a powered-off cable
// (< 1; modest, per §5.2's "powering off ... helps only when the threat
// is moderate").
constexpr double kPoweredOffFactor = 0.65;

// Throws std::invalid_argument naming lead_time_hours when it is out of range.
void validate(const ShutdownPolicy& policy) {
  if (!(std::isfinite(policy.lead_time_hours) &&
        policy.lead_time_hours >= 0.0)) {
    throw std::invalid_argument(
        "ShutdownPolicy: lead_time_hours must be finite and >= 0");
  }
}

// How many cables fit in the lead time. Clamped in double, so the
// conversion is always defined.
std::size_t cable_budget(const ShutdownPolicy& policy, std::size_t cables) {
  return static_cast<std::size_t>(
      std::min(policy.lead_time_hours / kHoursPerCable,
               static_cast<double>(cables)));
}

}  // namespace

ShutdownOutcome evaluate_shutdown(const topo::InfrastructureNetwork& net,
                                  const gic::RepeaterFailureModel& model,
                                  const ShutdownPolicy& policy,
                                  double repeater_spacing_km) {
  sim::TrialConfig config;
  config.repeater_spacing_km = repeater_spacing_km;
  const sim::FailureSimulator simulator(net, config);
  const ShutdownPlan plan = plan_shutdown(simulator, model, policy);

  ShutdownOutcome outcome;
  outcome.cables_shut_down = plan.cables.size();
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    outcome.expected_failures_no_action +=
        simulator.cable_death_probability(c, model);
    outcome.expected_failures_with_plan += plan.table.probability[c];
  }
  return outcome;
}

ShutdownPlan plan_shutdown(const sim::FailureSimulator& simulator,
                           const gic::RepeaterFailureModel& model,
                           const ShutdownPolicy& policy) {
  validate(policy);
  const topo::InfrastructureNetwork& net = simulator.network();
  const ShutdownAdjustedModel off_model(model, kPoweredOffFactor);
  const std::size_t budget = cable_budget(policy, net.cable_count());

  ShutdownPlan plan;
  plan.table = simulator.death_probability_table(model);

  std::vector<std::pair<double, topo::CableId>> risk;
  risk.reserve(net.cable_count());
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const double p = plan.table.probability[c];
    double key = 0.0;
    switch (policy.priority) {
      case ShutdownPriority::kByBenefit:
        key = p - simulator.cable_death_probability(c, off_model);
        break;
      case ShutdownPriority::kByRisk:
        key = p;
        break;
      case ShutdownPriority::kNone:
        key = 0.0;
        break;
    }
    risk.push_back({key, c});
  }
  if (policy.priority != ShutdownPriority::kNone) {
    std::stable_sort(risk.begin(), risk.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
  }

  for (std::size_t i = 0; i < budget; ++i) {
    const topo::CableId c = risk[i].second;
    plan.cables.push_back(c);
    plan.table.probability[c] = simulator.cable_death_probability(c, off_model);
  }
  return plan;
}

}  // namespace solarnet::core
