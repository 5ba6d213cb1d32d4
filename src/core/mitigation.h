// Mitigation portfolio (§5 as one decision): given a storm state, evaluate
// a package of defenses — N new low-latitude cables (§5.1), a lead-time
// shutdown policy (§5.2), and a replica-placement rule (§5.2/§5.4) —
// against the undefended baseline, in one report. This is the "help
// operators in making disaster preparation and recovery plans" tool the
// paper's conclusion asks for.
#pragma once

#include <string>
#include <vector>

#include "core/planner.h"
#include "core/shutdown.h"
#include "gic/failure_model.h"
#include "services/availability.h"
#include "topology/network.h"

namespace solarnet::core {

struct MitigationPlan {
  // New cables to build (ranked subset is chosen by the evaluator).
  std::vector<CandidateCable> candidate_cables;
  std::size_t cables_to_build = 2;
  ShutdownPolicy shutdown;
  // Replica placement evaluated for availability (empty = skip).
  services::ServiceSpec service;
  bool has_service = false;
};

struct MitigationReport {
  // Corridor cut-off probability (US <-> Europe) before/after new cables.
  double corridor_cutoff_before = 0.0;
  double corridor_cutoff_after = 0.0;
  std::vector<std::string> cables_built;
  // Expected failed cables with/without the shutdown plan (on the
  // augmented network).
  double expected_failures_no_action = 0.0;
  double expected_failures_with_plan = 0.0;
  // Mean service read availability over draws, before/after the whole
  // package (0 when no service given).
  double service_availability_before = 0.0;
  double service_availability_after = 0.0;

  double expected_cables_saved() const noexcept {
    return expected_failures_no_action - expected_failures_with_plan;
  }
};

// Evaluates the plan against `model` on `base` (copied; base is not
// modified) at the paper's 150 km repeater spacing. The cables_to_build
// best candidates by US <-> Europe corridor risk reduction are added, then
// shutdown and service availability (10 draws of seed 5) are evaluated on
// the augmented network.
MitigationReport evaluate_mitigation(const topo::InfrastructureNetwork& base,
                                     const gic::RepeaterFailureModel& model,
                                     const MitigationPlan& plan);

}  // namespace solarnet::core
