// Post-storm repair modelling (§3.2.2). Submarine repairs need a cable
// ship on site: faults are located from the landing stations, a ship is
// dispatched, and each fault takes days-to-weeks. The global repair fleet
// is tiny (~60 vessels), so a storm that damages hundreds of cables at
// once — unlike the localized anchor/fishing faults the fleet is sized
// for — queues repairs for months. This module turns a failure draw into
// fault counts, schedules the fleet, and produces restoration timelines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/monte_carlo.h"
#include "topology/network.h"
#include "util/rng.h"

namespace solarnet::recovery {

// Dispatch + transit to the fault area.
inline constexpr double kMobilizationDays = 12.0;
// On-site work per fault (splice + burial + tests).
inline constexpr double kRepairDaysPerFault = 9.0;
// Land cables are far easier (§4.2.2: submarine cables are "more
// difficult to repair"); a land crew fixes a cable in a couple of days
// and crews are plentiful.
inline constexpr double kLandRepairDays = 2.0;
inline constexpr std::size_t kLandCrews = 400;

struct RepairFleetParams {
  std::size_t cable_ships = 60;
};

struct CableRepairJob {
  topo::CableId cable = topo::kInvalidCable;
  std::size_t faults = 0;     // destroyed repeaters
  double work_days = 0.0;     // mobilization + per-fault work
  double completion_day = 0.0;
};

struct RecoveryTimeline {
  // Indexed by cable id; 0 for cables that never failed.
  std::vector<double> restore_day;
  std::vector<CableRepairJob> jobs;  // failed cables only, schedule order

  // Day by which `fraction` of failed cables are restored (inf-free: the
  // schedule always completes). Returns 0 when nothing failed.
  double days_to_restore_fraction(double fraction) const;
};

// Per-cable fault counts for a failure draw: a dead cable has
// 1 + Binomial(repeaters - 1, p_extra) destroyed repeaters — the storm hit
// every repeater, not just one, so multi-fault cables are the norm. The
// constructor precomputes per-cable repeater counts and the conditional
// per-repeater probability (the cable's death probability from `table`,
// inverted over its repeaters); sample() then draws dead cables in
// ascending order, repeaters - 1 bernoullis each, into a caller-owned
// buffer, allocation-free (sim::TimelineEngine runs one fault draw per
// Monte-Carlo trial). tests/recovery/repair_test.cpp checks it bit for bit
// against a frozen copy of the original one-shot sampler.
class FaultSampler {
 public:
  FaultSampler(const sim::FailureSimulator& simulator,
               const sim::DeathProbabilityTable& table);

  // `dead` and `faults` are indexed by cable (nonzero byte = dead);
  // faults[c] is 0 for alive cables. Both must match the network size.
  void sample(std::span<const std::uint8_t> dead, util::Rng& rng,
              std::span<std::uint32_t> faults) const;

 private:
  std::vector<std::uint32_t> repeaters_;
  std::vector<double> per_repeater_;
};

// Greedy fleet scheduling: highest-priority cables first (priority =
// number of landing points, a proxy for restored connectivity), each
// assigned to the earliest-free ship/crew. The constructor resolves the
// priority order once (stable sort of all cables by landing-point count,
// descending; filtered by a dead set it is the stable order of that set's
// jobs); schedule() then runs the earliest-free-worker assignment with an
// explicit binary heap in warm scratch storage. tests/recovery/
// repair_test.cpp checks it bit for bit against a frozen copy of the
// original per-draw std::priority_queue scheduler.
class RepairScheduler {
 public:
  struct Scratch {
    std::vector<double> free_at;  // worker free-time heap storage
  };

  RepairScheduler(const topo::InfrastructureNetwork& net,
                  RepairFleetParams params = {});

  const RepairFleetParams& params() const noexcept { return params_; }

  // Writes each dead cable's completion day into restore_day (0.0 for
  // cables that never failed). `faults` entries are clamped to >= 1 for
  // dead cables. When `jobs` is non-null each scheduled job is appended to
  // it in schedule order (submarine pool, then land pool); without it the
  // call is allocation-free once `scratch` is warm.
  void schedule(std::span<const std::uint8_t> dead,
                std::span<const std::uint32_t> faults, Scratch& scratch,
                std::span<double> restore_day,
                std::vector<CableRepairJob>* jobs = nullptr) const;

 private:
  RepairFleetParams params_;
  std::vector<std::uint32_t> submarine_order_;  // priority order, all cables
  std::vector<std::uint32_t> land_order_;
};

// One-shot form of FaultSampler for one std::vector<bool> draw under
// `model`.
std::vector<std::size_t> sample_fault_counts(
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model, const std::vector<bool>& cable_dead,
    util::Rng& rng);

// One-shot form of RepairScheduler: the completion days and the job list
// for one std::vector<bool> draw.
RecoveryTimeline schedule_repairs(const topo::InfrastructureNetwork& net,
                                  const std::vector<bool>& cable_dead,
                                  const std::vector<std::size_t>& faults,
                                  const RepairFleetParams& params = {});

// Connectivity restoration: fraction of nodes reachable (paper definition:
// has >= 1 live cable) as repairs complete, sampled at `step_days`.
std::vector<std::pair<double, double>> node_restoration_curve(
    const topo::InfrastructureNetwork& net, const std::vector<bool>& cable_dead,
    const RecoveryTimeline& timeline, double step_days = 10.0);

}  // namespace solarnet::recovery
