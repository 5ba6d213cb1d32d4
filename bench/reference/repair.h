// Frozen reference repair model: verbatim copies of the one-shot
// recovery::sample_fault_counts and recovery::schedule_repairs bodies that
// ran beside FaultSampler and RepairScheduler. They walk the cables with a
// std::vector<bool> dead set, invert each dead cable's death probability
// per call, and schedule each pool with a stable_sort of the per-draw job
// list plus a std::priority_queue of worker free times — an implementation
// that shares no code with the precomputed-order, explicit-heap kernels.
// The repair parity tests compare FaultSampler, RepairScheduler and the
// public forwards against these. Do not route these through
// recovery/repair.cpp; they are deliberately frozen.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "recovery/repair.h"
#include "sim/monte_carlo.h"
#include "topology/network.h"
#include "topology/repeater.h"
#include "util/rng.h"

namespace solarnet::reference {

// A dead cable has 1 + Binomial(repeaters - 1, p_extra) destroyed
// repeaters, drawn in ascending cable order.
inline std::vector<std::size_t> sample_fault_counts(
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model,
    const std::vector<bool>& cable_dead, util::Rng& rng) {
  const topo::InfrastructureNetwork& net = simulator.network();
  if (cable_dead.size() != net.cable_count()) {
    throw std::invalid_argument("sample_fault_counts: size mismatch");
  }
  std::vector<std::size_t> faults(net.cable_count(), 0);
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    if (!cable_dead[c]) continue;
    const std::size_t repeaters = topo::cable_repeater_count(
        net.cable(c), simulator.config().repeater_spacing_km);
    if (repeaters == 0) {
      faults[c] = 1;  // defensive: a dead repeaterless cable has one fault
      continue;
    }
    // Conditioned on death (>= 1 failure), the remaining repeaters fail
    // independently. Use the cable's single-repeater probability by
    // inverting the cable death probability.
    const double death = simulator.cable_death_probability(c, model);
    const double per_repeater =
        1.0 - std::pow(std::max(1e-12, 1.0 - death),
                       1.0 / static_cast<double>(repeaters));
    std::size_t extra = 0;
    for (std::size_t r = 1; r < repeaters; ++r) {
      if (rng.bernoulli(per_repeater)) ++extra;
    }
    faults[c] = 1 + extra;
  }
  return faults;
}

// Greedy fleet scheduling: highest-priority cables first (priority =
// number of landing points), each assigned to the earliest-free ship/crew.
inline recovery::RecoveryTimeline schedule_repairs(
    const topo::InfrastructureNetwork& net,
    const std::vector<bool>& cable_dead,
    const std::vector<std::size_t>& faults,
    const recovery::RepairFleetParams& params = {}) {
  if (cable_dead.size() != net.cable_count() ||
      faults.size() != net.cable_count()) {
    throw std::invalid_argument("schedule_repairs: size mismatch");
  }
  if (params.cable_ships == 0 || recovery::kLandCrews == 0) {
    throw std::invalid_argument("schedule_repairs: empty fleet");
  }

  recovery::RecoveryTimeline timeline;
  timeline.restore_day.assign(net.cable_count(), 0.0);

  // Build jobs, submarine and land pools separately.
  std::vector<recovery::CableRepairJob> submarine_jobs;
  std::vector<recovery::CableRepairJob> land_jobs;
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    if (!cable_dead[c]) continue;
    recovery::CableRepairJob job;
    job.cable = c;
    job.faults = std::max<std::size_t>(1, faults[c]);
    if (net.cable(c).kind == topo::CableKind::kSubmarine) {
      job.work_days = recovery::kMobilizationDays +
                      recovery::kRepairDaysPerFault *
                          static_cast<double>(job.faults);
      submarine_jobs.push_back(job);
    } else {
      job.work_days =
          recovery::kLandRepairDays * static_cast<double>(job.faults);
      land_jobs.push_back(job);
    }
  }

  // Priority: cables touching more landing points restore more
  // connectivity per ship-day.
  auto priority = [&](const recovery::CableRepairJob& j) {
    return net.cable(j.cable).endpoints().size();
  };
  auto schedule_pool = [&](std::vector<recovery::CableRepairJob>& jobs,
                           std::size_t workers) {
    std::stable_sort(jobs.begin(), jobs.end(),
                     [&](const recovery::CableRepairJob& a,
                         const recovery::CableRepairJob& b) {
                       return priority(a) > priority(b);
                     });
    // Min-heap of worker free times.
    std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
    for (std::size_t w = 0; w < workers; ++w) free_at.push(0.0);
    for (recovery::CableRepairJob& job : jobs) {
      const double start = free_at.top();
      free_at.pop();
      job.completion_day = start + job.work_days;
      free_at.push(job.completion_day);
      timeline.restore_day[job.cable] = job.completion_day;
      timeline.jobs.push_back(job);
    }
  };
  schedule_pool(submarine_jobs, params.cable_ships);
  schedule_pool(land_jobs, recovery::kLandCrews);
  return timeline;
}

}  // namespace solarnet::reference
