#include "recovery/repair.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "topology/repeater.h"

namespace solarnet::recovery {

double RecoveryTimeline::days_to_restore_fraction(double fraction) const {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("days_to_restore_fraction: bad fraction");
  }
  if (jobs.empty()) return 0.0;
  std::vector<double> completions;
  completions.reserve(jobs.size());
  for (const CableRepairJob& j : jobs) completions.push_back(j.completion_day);
  std::sort(completions.begin(), completions.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(completions.size())));
  if (idx == 0) return 0.0;
  return completions[idx - 1];
}

FaultSampler::FaultSampler(const sim::FailureSimulator& simulator,
                           const sim::DeathProbabilityTable& table) {
  const topo::InfrastructureNetwork& net = simulator.network();
  const std::size_t cables = net.cable_count();
  if (table.probability.size() != cables) {
    throw std::invalid_argument("FaultSampler: table size mismatch");
  }
  repeaters_.resize(cables);
  per_repeater_.assign(cables, 0.0);
  for (topo::CableId c = 0; c < cables; ++c) {
    const std::size_t repeaters = topo::cable_repeater_count(
        net.cable(c), simulator.config().repeater_spacing_km);
    repeaters_[c] = static_cast<std::uint32_t>(repeaters);
    if (repeaters == 0) continue;
    // Conditioned on death (>= 1 failure), the remaining repeaters fail
    // independently: invert the cable death probability to the cable's
    // single-repeater probability.
    const double death = table.probability[c];
    per_repeater_[c] =
        1.0 - std::pow(std::max(1e-12, 1.0 - death),
                       1.0 / static_cast<double>(repeaters));
  }
}

void FaultSampler::sample(std::span<const std::uint8_t> dead, util::Rng& rng,
                          std::span<std::uint32_t> faults) const {
  if (dead.size() != repeaters_.size() || faults.size() != repeaters_.size()) {
    throw std::invalid_argument("FaultSampler::sample: size mismatch");
  }
  for (std::size_t c = 0; c < repeaters_.size(); ++c) {
    if (!dead[c]) {
      faults[c] = 0;
      continue;
    }
    const std::size_t repeaters = repeaters_[c];
    if (repeaters == 0) {
      faults[c] = 1;  // defensive: a dead repeaterless cable has one fault
      continue;
    }
    const double per_repeater = per_repeater_[c];
    std::uint32_t extra = 0;
    for (std::size_t r = 1; r < repeaters; ++r) {
      if (rng.bernoulli(per_repeater)) ++extra;
    }
    faults[c] = 1 + extra;
  }
}

RepairScheduler::RepairScheduler(const topo::InfrastructureNetwork& net,
                                 RepairFleetParams params)
    : params_(params) {
  if (params_.cable_ships == 0) {
    throw std::invalid_argument("RepairScheduler: empty fleet");
  }
  // One stable sort of *all* cables by priority (landing points,
  // descending). Filtered by a dead set, it equals a stable sort of that
  // set's jobs listed in ascending cable order, so the order is resolved
  // once per network instead of once per draw.
  std::vector<std::uint32_t> order(net.cable_count());
  for (std::size_t c = 0; c < order.size(); ++c) {
    order[c] = static_cast<std::uint32_t>(c);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return net.cable(a).endpoints().size() >
                            net.cable(b).endpoints().size();
                   });
  for (const std::uint32_t c : order) {
    if (net.cable(c).kind == topo::CableKind::kSubmarine) {
      submarine_order_.push_back(c);
    } else {
      land_order_.push_back(c);
    }
  }
}

void RepairScheduler::schedule(std::span<const std::uint8_t> dead,
                               std::span<const std::uint32_t> faults,
                               Scratch& scratch, std::span<double> restore_day,
                               std::vector<CableRepairJob>* jobs) const {
  const std::size_t cables = submarine_order_.size() + land_order_.size();
  if (dead.size() != cables || faults.size() != cables ||
      restore_day.size() != cables) {
    throw std::invalid_argument("RepairScheduler::schedule: size mismatch");
  }
  std::fill(restore_day.begin(), restore_day.end(), 0.0);

  // Greedy earliest-free-worker assignment with an explicit min-heap of
  // worker free times over warm storage (std::pop_heap / std::push_heap,
  // the algorithms std::priority_queue runs).
  std::vector<double>& heap = scratch.free_at;
  const auto run_pool = [&](std::span<const std::uint32_t> order,
                            std::size_t workers, bool submarine) {
    heap.assign(workers, 0.0);
    for (const std::uint32_t c : order) {
      if (!dead[c]) continue;
      const std::uint32_t job_faults = std::max<std::uint32_t>(1, faults[c]);
      const double work =
          submarine ? kMobilizationDays +
                          kRepairDaysPerFault * static_cast<double>(job_faults)
                    : kLandRepairDays * static_cast<double>(job_faults);
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const double start = heap.back();
      heap.back() = start + work;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      restore_day[c] = start + work;
      if (jobs != nullptr) jobs->push_back({c, job_faults, work, start + work});
    }
  };
  run_pool(submarine_order_, params_.cable_ships, /*submarine=*/true);
  run_pool(land_order_, kLandCrews, /*submarine=*/false);
}

std::vector<std::size_t> sample_fault_counts(
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model,
    const std::vector<bool>& cable_dead, util::Rng& rng) {
  const FaultSampler sampler(simulator,
                             simulator.death_probability_table(model));
  const std::vector<std::uint8_t> dead(cable_dead.begin(), cable_dead.end());
  std::vector<std::uint32_t> faults(dead.size());
  sampler.sample(dead, rng, faults);
  return {faults.begin(), faults.end()};
}

RecoveryTimeline schedule_repairs(const topo::InfrastructureNetwork& net,
                                  const std::vector<bool>& cable_dead,
                                  const std::vector<std::size_t>& faults,
                                  const RepairFleetParams& params) {
  const RepairScheduler scheduler(net, params);
  if (std::ranges::any_of(faults, [](std::size_t f) {
        return f > std::numeric_limits<std::uint32_t>::max();
      })) {
    throw std::invalid_argument("schedule_repairs: fault count too large");
  }
  const std::vector<std::uint8_t> dead(cable_dead.begin(), cable_dead.end());
  const std::vector<std::uint32_t> faults_u32(faults.begin(), faults.end());
  RecoveryTimeline timeline;
  timeline.restore_day.resize(net.cable_count());
  RepairScheduler::Scratch scratch;
  scheduler.schedule(dead, faults_u32, scratch, timeline.restore_day,
                     &timeline.jobs);
  return timeline;
}

std::vector<std::pair<double, double>> node_restoration_curve(
    const topo::InfrastructureNetwork& net,
    const std::vector<bool>& cable_dead, const RecoveryTimeline& timeline,
    double step_days) {
  if (step_days <= 0.0) {
    throw std::invalid_argument("node_restoration_curve: bad step");
  }
  const std::size_t connected = net.connected_node_count();
  std::vector<std::pair<double, double>> curve;
  if (connected == 0) {
    curve.push_back({0.0, 1.0});
    return curve;
  }
  double end = 0.0;
  for (const CableRepairJob& j : timeline.jobs) {
    end = std::max(end, j.completion_day);
  }
  for (double day = 0.0; day <= end + step_days; day += step_days) {
    std::vector<bool> still_dead(net.cable_count(), false);
    for (topo::CableId c = 0; c < net.cable_count(); ++c) {
      still_dead[c] = cable_dead[c] && timeline.restore_day[c] > day;
    }
    const std::size_t unreachable = net.unreachable_nodes(still_dead).size();
    curve.push_back({day, 1.0 - static_cast<double>(unreachable) /
                                    static_cast<double>(connected)});
    if (unreachable == 0) break;
  }
  return curve;
}

}  // namespace solarnet::recovery
