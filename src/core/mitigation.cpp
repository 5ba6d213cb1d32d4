#include "core/mitigation.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/country.h"
#include "geo/distance.h"
#include "sim/monte_carlo.h"

namespace solarnet::core {

namespace {

// Mitigation scoring rides the trial pipeline (availability_sweep): draw d
// samples from child stream d, so the score is reproducible, thread-count
// independent, and the before/after networks are evaluated under common
// random numbers per draw index.
double mean_service_availability(const topo::InfrastructureNetwork& net,
                                 const gic::RepeaterFailureModel& model,
                                 const services::ServiceSpec& service,
                                 const MitigationOptions& options) {
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = options.repeater_spacing_km;
  cfg.threads = options.threads;
  const sim::FailureSimulator simulator(net, cfg);
  return services::availability_sweep(simulator, model, service,
                                      options.availability_draws,
                                      options.seed, options.threads)
      .read_availability.mean();
}

}  // namespace

MitigationReport evaluate_mitigation(const topo::InfrastructureNetwork& base,
                                     const gic::RepeaterFailureModel& model,
                                     const MitigationPlan& plan,
                                     const MitigationOptions& options) {
  MitigationReport report;
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = options.repeater_spacing_km;

  // Baseline corridor risk and service availability.
  {
    const sim::FailureSimulator simulator(base, cfg);
    report.corridor_cutoff_before = analysis::all_fail_probability(
        simulator, model,
        analysis::corridor_cables(base, options.corridor_a,
                                  options.corridor_b));
    if (plan.has_service) {
      report.service_availability_before =
          mean_service_availability(base, model, plan.service, options);
    }
  }

  // Rank and build the best candidates.
  const TopologyPlanner planner(base.clone_with_extra_cables(""), cfg);
  const auto ranked = planner.rank(plan.candidate_cables, model,
                                   options.corridor_a, options.corridor_b);
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
        analysis::corridor_cables(augmented, options.corridor_a,
                                  options.corridor_b));
  }
  const ShutdownOutcome shutdown = evaluate_shutdown(
      augmented, model, plan.shutdown, options.repeater_spacing_km);
  report.expected_failures_no_action = shutdown.expected_failures_no_action;
  report.expected_failures_with_plan = shutdown.expected_failures_with_plan;
  if (plan.has_service) {
    report.service_availability_after =
        mean_service_availability(augmented, model, plan.service, options);
  }
  return report;
}

}  // namespace solarnet::core
