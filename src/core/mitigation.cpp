#include "core/mitigation.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/country.h"
#include "geo/distance.h"
#include "sim/monte_carlo.h"

namespace solarnet::core {

namespace {

constexpr double kRepeaterSpacingKm = 150.0;
const std::vector<std::string> kCorridorA = {"US"};
const std::vector<std::string> kCorridorB = {"GB", "IE", "FR", "NL", "BE",
                                             "DE", "DK", "NO", "PT", "ES"};
constexpr std::size_t kAvailabilityDraws = 10;
constexpr std::uint64_t kSeed = 5;

// Mitigation scoring rides the trial pipeline (availability_sweep): draw d
// samples from child stream d, so the score is reproducible, thread-count
// independent, and the before/after networks are evaluated under common
// random numbers per draw index.
double mean_service_availability(const topo::InfrastructureNetwork& net,
                                 const gic::RepeaterFailureModel& model,
                                 const services::ServiceSpec& service) {
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = kRepeaterSpacingKm;
  const sim::FailureSimulator simulator(net, cfg);
  return services::availability_sweep(simulator, model, service,
                                      kAvailabilityDraws, kSeed)
      .read_availability.mean();
}

}  // namespace

MitigationReport evaluate_mitigation(const topo::InfrastructureNetwork& base,
                                     const gic::RepeaterFailureModel& model,
                                     const MitigationPlan& plan) {
  MitigationReport report;
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = kRepeaterSpacingKm;

  // Baseline corridor risk and service availability.
  {
    const sim::FailureSimulator simulator(base, cfg);
    report.corridor_cutoff_before = analysis::all_fail_probability(
        simulator, model,
        analysis::corridor_cables(base, kCorridorA, kCorridorB));
    if (plan.has_service) {
      report.service_availability_before =
          mean_service_availability(base, model, plan.service);
    }
  }

  // Rank and build the best candidates.
  const TopologyPlanner planner(base.clone_with_extra_cables(""), cfg);
  const auto ranked =
      planner.rank(plan.candidate_cables, model, kCorridorA, kCorridorB);
  topo::InfrastructureNetwork augmented =
      base.clone_with_extra_cables("+mitigation");
  const std::size_t build =
      std::min(plan.cables_to_build, ranked.size());
  for (std::size_t i = 0; i < build; ++i) {
    augmented = with_cable(augmented, ranked[i].candidate);
    report.cables_built.push_back(ranked[i].candidate.from_node + " - " +
                                  ranked[i].candidate.to_node);
  }

  // Post-build metrics.
  {
    const sim::FailureSimulator simulator(augmented, cfg);
    report.corridor_cutoff_after = analysis::all_fail_probability(
        simulator, model,
        analysis::corridor_cables(augmented, kCorridorA, kCorridorB));
  }
  const ShutdownOutcome shutdown = evaluate_shutdown(
      augmented, model, plan.shutdown, kRepeaterSpacingKm);
  report.expected_failures_no_action = shutdown.expected_failures_no_action;
  report.expected_failures_with_plan = shutdown.expected_failures_with_plan;
  if (plan.has_service) {
    report.service_availability_after =
        mean_service_availability(augmented, model, plan.service);
  }
  return report;
}

}  // namespace solarnet::core
