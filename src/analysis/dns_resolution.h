// DNS resolution availability under partitions (§4.4.3 made operational):
// the root zone stays resolvable for a client as long as the client's
// partition contains at least one instance of at least one root letter —
// anycast means any reachable instance serves the zone. We also report the
// stricter per-letter view (how many of the 13 letters remain reachable),
// which bounds resolver retry behaviour.
//
// DnsResolutionEvaluator resolves every root instance once into a table
// over the distinct landing nodes they attach to (1,076 instances on 69
// nodes for the default root set), holding the 13-bit mask of root letters
// each node serves, and then answers each draw from the component labels
// of those nodes. DnsResolutionObserver runs it on a sim::TrialPipeline —
// including the joint cross-metric statistic P(resolution degraded AND
// heavy cable loss), which only a shared-draw pipeline can measure.
// evaluate_dns_resolution is a one-shot wrapper that builds the evaluator
// for a single std::vector<bool> draw.
#pragma once

#include <cstdint>
#include <span>
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

// Pre-resolved root reachability for one (network, root set) pair.
// Construction attaches every instance and the continent anchors once
// (services::attach over the network's shared attachment index) into a
// table over the distinct nodes with a letter mask per node (anycast: any
// reachable instance serves its letter). A continent reaches the letters
// OR-ed over the nodes that share its anchor's label. The network must
// outlive the evaluator.
class DnsResolutionEvaluator {
 public:
  // Throws util::Error(kInvalidArgument) naming the letter and the
  // instance index when a root letter lies outside 'a'..'m'.
  DnsResolutionEvaluator(const topo::InfrastructureNetwork& net,
                         const std::vector<datasets::DnsRootInstance>& roots);

  // The distinct attachment nodes, ascending: the query nodes whose labels
  // the label form of evaluate() reads.
  std::span<const topo::NodeId> nodes() const noexcept { return nodes_; }

  // Evaluates one draw from its labels (labels[i] is the label of
  // nodes()[i], see sim::TrialView::labels) into `out`, reusing its
  // storage. Continent shares are summed in
  // services::continent_population_shares() order. Allocation-free once
  // `out` is warm.
  void evaluate(const std::uint32_t* labels, DnsResolutionReport& out) const;

  // Evaluates one failure draw: decomposes the masked network and labels
  // nodes() itself. Allocation-free once warm.
  void evaluate(const util::Bitset& cable_dead, DnsResolutionReport& out);

 private:
  const topo::InfrastructureNetwork& net_;
  bool has_roots_;
  std::vector<topo::NodeId> nodes_;
  // Per node: the 13-bit mask of the letters served there (bit l = 'a' + l).
  std::vector<std::uint32_t> letters_;
  std::vector<std::pair<geo::Continent, std::uint32_t>> anchors_;
  sim::DrawLabels draw_;  // scratch of the dead-set form
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
// shared failure draw, evaluated from the labels of the evaluator's
// distinct attachment nodes — per trial on the scalar path, per batch on
// the 64-lane path.
class DnsResolutionObserver final : public sim::CheckpointableObserver {
 public:
  DnsResolutionObserver(const topo::InfrastructureNetwork& net,
                        const std::vector<datasets::DnsRootInstance>& roots,
                        double cable_loss_threshold_pct = 10.0);

  // Valid after TrialPipeline::run().
  const DnsResolutionSweep& result() const noexcept { return result_; }

  bool needs_components() const override { return true; }
  std::span<const topo::NodeId> query_nodes() const override {
    return evaluator_.nodes();
  }
  void begin_run(const sim::TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const sim::TrialView& view, std::size_t worker,
               std::size_t chunk) override;
  bool supports_batch() const override { return true; }
  void observe_batch(const sim::BatchTrialView& view, std::size_t worker,
                     std::size_t first_chunk) override;
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
  void add(const std::uint32_t* labels, double cables_failed_pct,
           std::size_t worker, std::size_t chunk);

  DnsResolutionEvaluator evaluator_;
  sim::LabelGather labels_;
  std::vector<DnsResolutionReport> reports_;  // per-worker scratch
  sim::ChunkSlots<Slot> slots_{"DnsResolutionObserver"};
  double threshold_pct_;
  DnsResolutionSweep result_;
};

}  // namespace solarnet::analysis
