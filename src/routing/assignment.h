// Traffic assignment: shortest-path routing of the demand matrix over the
// (possibly failure-masked) network, producing per-cable loads and
// utilizations. This quantifies §5.5's observation that cable failures in
// one region shift load onto surviving cables elsewhere ("when all
// submarine cables connecting to NY fail, there will be significant shifts
// in BGP paths and potential overload in Internet cables in California").
//
// The engine is batched: construction groups the demand matrix by source
// (ascending source id, original order within a source) and snapshots the
// per-edge weights and per-cable capacities, so routing a failure draw
// costs one scratch-based SSSP tree per distinct source
// (graph::shortest_path_tree) with every demand sharing that source
// assigned off the same tree. The hot assign() overload writes into
// caller-owned TrafficScratch + AssignmentResult and performs zero heap
// allocations once they are warm — this is what lets
// routing::TrafficObserver route the full matrix on every Monte-Carlo
// trial. When the caller also has the trial's component labels of the
// demand endpoints (sim::TrialPipeline gives them per draw), demands whose
// endpoints fall in different components are counted as stranded without
// touching the SSSP kernel, and sources with no surviving demand skip
// their tree entirely.
#pragma once

#include <span>
#include <vector>

#include "graph/shortest_paths.h"
#include "routing/capacity.h"
#include "routing/demand.h"
#include "topology/network.h"
#include "util/bitset.h"

namespace solarnet::routing {

struct CableLoad {
  topo::CableId cable = topo::kInvalidCable;
  double load_gbps = 0.0;
  double capacity_gbps = 0.0;
  double utilization() const noexcept {
    return capacity_gbps > 0.0 ? load_gbps / capacity_gbps : 0.0;
  }
};

struct AssignmentResult {
  std::vector<CableLoad> loads;  // indexed by cable id
  double delivered_gbps = 0.0;
  double undeliverable_gbps = 0.0;  // demand between disconnected gateways
  double max_utilization = 0.0;
  std::size_t overloaded_cables = 0;  // utilization > 1
  double mean_path_km = 0.0;          // over delivered demand (load-weighted)

  double delivered_fraction() const noexcept {
    const double total = delivered_gbps + undeliverable_gbps;
    return total > 0.0 ? delivered_gbps / total : 1.0;
  }
};

// Reusable per-worker working storage for the hot assign() path: the SSSP
// scratch plus a mask rebuilt in place per draw. Allocation-free once warm.
struct TrafficScratch {
  graph::RoutingScratch sssp;
  graph::AliveMask mask;
};

class TrafficEngine {
 public:
  // The network must outlive the engine. Demand endpoints must be in
  // range (throws std::out_of_range) and volumes finite and non-negative
  // (throws std::invalid_argument). Cable capacities come from
  // capacity_tbps.
  TrafficEngine(const topo::InfrastructureNetwork& net,
                std::vector<TrafficDemand> demands);

  const topo::InfrastructureNetwork& network() const noexcept { return net_; }
  const std::vector<TrafficDemand>& demands() const noexcept {
    return demands_;
  }
  // Total offered load (sum of demand volumes).
  double offered_gbps() const noexcept { return offered_gbps_; }
  // Distinct demand sources — the number of SSSP trees a full assign costs.
  std::size_t source_count() const noexcept { return sources_.size(); }
  // Distinct demand endpoints (sources and destinations), ascending.
  std::span<const topo::NodeId> endpoints() const noexcept {
    return endpoints_;
  }

  // Routes every demand on the shortest surviving path (by km) into `out`,
  // reusing `scratch`. `mask`, when non-null, must be the alive mask for
  // this exact `cable_dead` (the pipeline already built it); null means
  // assign builds it into scratch.mask. `labels`, when non-null, is
  // indexed by node id and must hold, for every endpoint(), a component
  // label of that mask (equal exactly when two endpoints share a
  // component: sim::TrialView::labels, or ComponentResult::component) — it
  // short-circuits cross-component demands to stranded without running
  // SSSP. Results are identical with or without the label fast path. Zero
  // heap allocations once scratch and out are warm.
  void assign(const util::Bitset& cable_dead, const graph::AliveMask* mask,
              const std::uint32_t* labels, TrafficScratch& scratch,
              AssignmentResult& out) const;

  // One-shot conveniences (allocate their result per call).
  AssignmentResult assign(const std::vector<bool>& cable_dead) const;
  AssignmentResult assign_baseline() const;  // no failures

  // Capacity-aware variant: demands are routed largest-first, each on the
  // shortest path whose every cable still has residual capacity for the
  // whole demand; later demands therefore spill onto longer routes as the
  // short ones fill. Demand with no fitting path is blocked (counted in
  // undeliverable_gbps — the congestion analogue of disconnection).
  // Utilization never exceeds 1.
  //
  // Implementation note (PR 9): instead of one Dijkstra per *demand* over
  // a demand-specific fit mask, the engine now builds one SSSP tree per
  // distinct source over the failure mask and reuses it whenever the
  // tree's path can absorb the whole demand; only demands whose tree path
  // lacks residual fall back to the per-demand fit-mask search (with early
  // exit at the destination). When shortest paths are unique this is
  // exactly the historical per-demand result — delivered/blocked volumes,
  // path lengths and per-cable loads all match bit for bit (the fallback
  // runs the identical algorithm on the identical mask, and a feasible
  // tree path is provably the fit-mask optimum). The one intentional
  // semantic difference: when a demand has several *equal-length* shortest
  // paths, the reused tree may charge a different one of them than the
  // historical fit-mask search would have picked. bench/perf_routing.cpp
  // gates the equivalence on the seed network.
  AssignmentResult assign_capacity_aware(
      const std::vector<bool>& cable_dead) const;

  // Load shifted onto each cable relative to a baseline (positive =
  // gained load after the event). Indexed by cable id.
  static std::vector<double> load_shift(const AssignmentResult& baseline,
                                        const AssignmentResult& after);

 private:
  // Demand indices of the s-th distinct source (ascending source order,
  // original demand order within a source — the exact accumulation order
  // of the historical per-source std::map loop, for bit-identity).
  std::span<const std::uint32_t> demands_of_source(std::size_t s) const {
    return {grouped_.data() + source_begin_[s],
            grouped_.data() + source_begin_[s + 1]};
  }

  const topo::InfrastructureNetwork& net_;
  std::vector<TrafficDemand> demands_;
  std::vector<topo::NodeId> sources_;        // ascending distinct sources
  std::vector<std::uint32_t> source_begin_;  // sources_.size()+1 offsets
  std::vector<std::uint32_t> grouped_;       // demand indices by source
  std::vector<topo::NodeId> endpoints_;      // ascending distinct endpoints
  std::vector<double> edge_weight_;          // per graph edge, in km
  std::vector<double> capacity_gbps_;        // per cable
  double offered_gbps_ = 0.0;
};

}  // namespace solarnet::routing
