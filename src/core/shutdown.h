// Lead-time shutdown strategy (§5.2). A CME gives 13 hours to a few days
// of warning. Powering off a cable gives only partial protection — GIC
// flows through a powered-off conductor too; removing the superimposed feed
// current reduces the peak only slightly — and operators can only process
// so many cable shutdowns within the lead time. This module quantifies the
// expected benefit of a shutdown plan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gic/failure_model.h"
#include "sim/monte_carlo.h"
#include "topology/network.h"

namespace solarnet::core {

enum class ShutdownPriority {
  // Largest expected benefit first (death-probability drop from powering
  // off). The right default: cables already doomed gain nothing from a
  // shutdown, so raw risk is a bad ordering.
  kByBenefit,
  // Highest death probability first (naive triage).
  kByRisk,
  // Cable-id order (no triage) — the do-nothing baseline for ablations.
  kNone,
};

// Each controlled shutdown takes 0.5 h of the lead time, and a powered-off
// cable keeps 65% of its repeater failure probability (modest, per §5.2's
// "powering off ... helps only when the threat is moderate"; constants in
// shutdown.cpp).
struct ShutdownPolicy {
  double lead_time_hours = 13.0;  // minimum CME travel time
  ShutdownPriority priority = ShutdownPriority::kByBenefit;
};

// A failure-model decorator that scales probabilities for cables marked
// shut down. Used internally and exposed for tests.
class ShutdownAdjustedModel final : public gic::RepeaterFailureModel {
 public:
  ShutdownAdjustedModel(const gic::RepeaterFailureModel& base, double factor)
      : base_(base), factor_(factor) {}
  double failure_probability(const gic::RepeaterContext& ctx) const override {
    return factor_ * base_.failure_probability(ctx);
  }
  std::string name() const override {
    return base_.name() + " (powered off)";
  }

 private:
  const gic::RepeaterFailureModel& base_;
  double factor_;
};

struct ShutdownOutcome {
  std::size_t cables_shut_down = 0;
  double expected_failures_no_action = 0.0;
  double expected_failures_with_plan = 0.0;
  double expected_cables_saved() const noexcept {
    return expected_failures_no_action - expected_failures_with_plan;
  }
};

// Evaluates the expected number of failed cables with and without the
// shutdown plan (exact expectation over per-cable death probabilities): the
// plan_shutdown of a simulator at `repeater_spacing_km`, summed in cable-id
// order.
ShutdownOutcome evaluate_shutdown(const topo::InfrastructureNetwork& net,
                                  const gic::RepeaterFailureModel& model,
                                  const ShutdownPolicy& policy,
                                  double repeater_spacing_km = 150.0);

// A concrete plan: which cables get powered off, plus the spliced
// death-probability table (powered-off probability for shut cables, base
// probability otherwise) that downstream engines — sim::TimelineEngine,
// sim::TrialPipeline — consume directly. Built against the caller's
// simulator so repeater spacing and trial config match the rest of the
// run. The lead time buys one shutdown per 0.5 h.
// Throws std::invalid_argument naming lead_time_hours when it is negative
// or non-finite.
struct ShutdownPlan {
  std::vector<topo::CableId> cables;  // shut down, in priority order
  sim::DeathProbabilityTable table;
};

ShutdownPlan plan_shutdown(const sim::FailureSimulator& simulator,
                           const gic::RepeaterFailureModel& model,
                           const ShutdownPolicy& policy);

}  // namespace solarnet::core
