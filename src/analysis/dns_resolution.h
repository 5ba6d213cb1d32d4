// DNS resolution availability under partitions (§4.4.3 made operational):
// the root zone stays resolvable for a client as long as the client's
// partition contains at least one instance of at least one root letter —
// anycast means any reachable instance serves the zone. We also report the
// stricter per-letter view (how many of the 13 letters remain reachable),
// which bounds resolver retry behaviour.
//
// DnsResolutionEvaluator resolves every letter's instances once and then
// answers per-draw queries against a shared component decomposition, and
// DnsResolutionObserver runs it per trial on a sim::TrialPipeline —
// including the joint cross-metric statistic P(resolution degraded AND
// heavy cable loss), which only a shared-draw pipeline can measure.
// evaluate_dns_resolution is a one-shot wrapper that builds the evaluator
// and one decomposition for a single std::vector<bool> draw.
#pragma once

#include <array>
#include <vector>

#include "datasets/infra_points.h"
#include "geo/regions.h"
#include "services/availability.h"
#include "sim/pipeline.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/stats.h"

namespace solarnet::analysis {

struct DnsResolutionReport {
  struct PerContinent {
    geo::Continent continent;
    bool any_root_reachable = false;
    std::size_t letters_reachable = 0;  // of 13
  };
  std::vector<PerContinent> per_continent;
  // Population-weighted probability that a client can resolve the root.
  double resolution_availability = 0.0;
  // Weighted mean number of reachable letters.
  double mean_letters_reachable = 0.0;
};

// Evaluates root reachability for clients on every continent under a
// cable-failure draw. Instances and clients attach to landing stations the
// same way services do (best-connected node within range).
DnsResolutionReport evaluate_dns_resolution(
    const topo::InfrastructureNetwork& net, const std::vector<bool>& cable_dead,
    const std::vector<datasets::DnsRootInstance>& roots);

// Pre-resolved root-letter evaluators for one (network, root set) pair.
// Construction attaches every instance of every populated letter to its
// landing node once (one services::ServiceEvaluator per letter, quorum 1,
// each searching the network's shared attachment index); evaluate() then
// costs 13 allocation-free service lookups against a caller-provided
// component decomposition. Copyable — the observer hands each pipeline
// worker its own copy. The network must outlive the evaluator.
class DnsResolutionEvaluator {
 public:
  // Throws util::Error(kInvalidArgument) naming the letter and the
  // instance index when a root letter lies outside 'a'..'m'.
  DnsResolutionEvaluator(const topo::InfrastructureNetwork& net,
                         const std::vector<datasets::DnsRootInstance>& roots);

  // Evaluates one draw into `out`, reusing its storage; `components` must
  // be the masked decomposition for the same network and cable_dead (the
  // trial pipeline's per-trial result). Allocation-free once warm.
  void evaluate(const util::Bitset& cable_dead,
                const graph::ComponentResult& components,
                DnsResolutionReport& out);

 private:
  std::vector<services::ServiceEvaluator> letters_;
  services::AvailabilityReport letter_report_;  // per-draw scratch
};

// True when some continent (weighted by population share) cannot reach any
// root. The six shares sum to 1 - O(1e-16) in floating point, so full
// resolution must be detected with an epsilon, not `< 1.0`.
inline bool resolution_degraded(double resolution_availability) noexcept {
  return resolution_availability < 1.0 - 1e-9;
}

// Aggregates of a pipeline run, plus the joint cross-metric statistic the
// shared draw makes expressible: within one trial, was DNS resolution
// degraded (population-weighted availability < 1) while cable loss exceeded
// the threshold?
struct DnsResolutionSweep {
  std::size_t trials = 0;
  util::RunningStats resolution_availability;
  util::RunningStats mean_letters_reachable;
  double cable_loss_threshold_pct = 10.0;
  std::size_t degraded_trials = 0;    // resolution_degraded() trials
  std::size_t heavy_loss_trials = 0;  // cables_failed_pct > threshold
  std::size_t joint_trials = 0;       // both, in the same trial

  // P(DNS degraded AND > threshold% cables lost).
  double joint_probability() const noexcept {
    return trials > 0
               ? static_cast<double>(joint_trials) / static_cast<double>(trials)
               : 0.0;
  }
};

// Trial-pipeline observer: per-trial DNS resolution availability over the
// shared failure draw and component decomposition.
class DnsResolutionObserver final : public sim::CheckpointableObserver {
 public:
  DnsResolutionObserver(const topo::InfrastructureNetwork& net,
                        const std::vector<datasets::DnsRootInstance>& roots,
                        double cable_loss_threshold_pct = 10.0);

  // Valid after TrialPipeline::run().
  const DnsResolutionSweep& result() const noexcept { return result_; }

  bool needs_components() const override { return true; }
  void begin_run(const sim::TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const sim::TrialView& view, std::size_t worker,
               std::size_t chunk) override;
  void end_run() override;

  // The id carries the cable-loss threshold, which decides the heavy-loss
  // and joint counts a chunk holds.
  std::string checkpoint_id() const override;
  void save_chunk(std::size_t chunk, util::ByteWriter& out) const override;
  void load_chunk(std::size_t chunk, util::ByteReader& in) override;

 private:
  struct Slot {
    util::RunningStats availability;
    util::RunningStats letters;
    std::size_t degraded = 0;
    std::size_t heavy = 0;
    std::size_t joint = 0;
    static constexpr auto kFields =
        std::tuple{&Slot::availability, &Slot::letters, &Slot::degraded,
                   &Slot::heavy, &Slot::joint};
  };
  DnsResolutionEvaluator prototype_;
  std::vector<DnsResolutionEvaluator> workers_;
  std::vector<DnsResolutionReport> reports_;  // per-worker scratch
  sim::ChunkSlots<Slot> slots_{"DnsResolutionObserver"};
  double threshold_pct_;
  DnsResolutionSweep result_;
};

}  // namespace solarnet::analysis
