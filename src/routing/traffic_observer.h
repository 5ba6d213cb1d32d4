// Trial-pipeline observer for post-failure traffic routing: the paper's
// §5.5 cross-layer argument ("significant shifts in BGP paths and
// potential overload in Internet cables in California" when NY's cables
// fail) measured as Monte-Carlo statistics instead of a one-shot example.
// Each trial the observer routes the engine's whole demand matrix over the
// pipeline's shared failure draw — reusing the pipeline's alive mask and
// the component labels of the demand endpoints (its query nodes), so
// stranded (cross-component) demands never touch the SSSP kernel — and
// accumulates traffic-weighted loss metrics per chunk: delivered fraction,
// stranded Gbps, max cable utilization and overloaded-cable count after
// reroute, mean delivered path length. It has no batch path: routing walks
// the masked graph, so on the 64-lane path it is the one report observer
// the pipeline reconstructs lanes for.
//
// Per-worker TrafficScratch + AssignmentResult + node-indexed endpoint
// labels, per-chunk ChunkSlots (sim/chunked.h). Checkpointable under the
// CampaignRunner; the id carries the network name and demand-matrix shape
// so a checkpoint from a different traffic configuration is rejected
// instead of misapplied.
#pragma once

#include <string>
#include <vector>

#include "routing/assignment.h"
#include "sim/pipeline.h"
#include "util/stats.h"

namespace solarnet::routing {

// Monte-Carlo traffic statistics over one pipeline run.
struct TrafficSweep {
  std::string network;
  std::size_t trials = 0;
  std::size_t demand_pairs = 0;  // demand entries routed per trial
  double offered_gbps = 0.0;
  util::RunningStats delivered_fraction;
  util::RunningStats stranded_gbps;
  util::RunningStats max_utilization;
  util::RunningStats overloaded_cables;
  util::RunningStats mean_path_km;
};

class TrafficObserver final : public sim::CheckpointableObserver {
 public:
  // The engine must outlive the observer (it holds the grouped demand
  // matrix and the network reference).
  explicit TrafficObserver(const TrafficEngine& engine);

  // Valid after TrialPipeline::run().
  const TrafficSweep& result() const noexcept { return result_; }

  bool needs_components() const override { return true; }
  std::span<const topo::NodeId> query_nodes() const override {
    return engine_.endpoints();
  }
  void begin_run(const sim::TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const sim::TrialView& view, std::size_t worker,
               std::size_t chunk) override;
  void end_run() override;

  std::string checkpoint_id() const override;
  void save_chunk(std::size_t chunk, util::ByteWriter& out) const override;
  void load_chunk(std::size_t chunk, util::ByteReader& in) override;

 private:
  struct Slot {
    util::RunningStats delivered;
    util::RunningStats stranded;
    util::RunningStats max_util;
    util::RunningStats overloaded;
    util::RunningStats path_km;
    static constexpr auto kFields =
        std::tuple{&Slot::delivered, &Slot::stranded, &Slot::max_util,
                   &Slot::overloaded, &Slot::path_km};
  };
  const TrafficEngine& engine_;
  std::vector<TrafficScratch> scratch_;      // per-worker
  std::vector<AssignmentResult> results_;    // per-worker
  std::vector<std::uint32_t> slots_of_endpoints_;  // label slot per endpoint
  std::vector<std::vector<std::uint32_t>> labels_;  // per-worker, by node id
  sim::ChunkSlots<Slot> slots_{"TrafficObserver"};
  TrafficSweep result_;
};

}  // namespace solarnet::routing
