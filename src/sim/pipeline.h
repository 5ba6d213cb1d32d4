// Unified trial-observer pipeline: one failure draw, every metric.
//
// The paper's headline results (Figs 6-9, §4.3-§4.4) are all statistics
// over the *same* storm realizations — cable loss, node reachability,
// service/DNS availability and country isolation are facets of one failure
// draw. TrialPipeline makes that structure explicit: each trial samples the
// cable failures once (DeathProbabilityTable under the any-failure rule),
// computes connectivity once into per-worker scratch, and fans a view out
// to every registered TrialObserver. Running N metrics costs one sampling
// and one connectivity pass per trial instead of N, and — because the
// observers all see the same draw — cross-metric joint statistics (e.g.
// P(DNS degraded AND >X% cables lost)) become expressible.
//
// Query vertices and labels. Reachability observers only ask whether a few
// nodes share a component: the landing nodes replicas and DNS roots attach
// to, the six continent anchors, the traffic demand endpoints. Each
// observer declares those nodes (query_nodes()); the pipeline keeps their
// ascending, distinct union and gives every view one component label per
// query vertex. Two query vertices share a label in a trial exactly when
// they share a surviving component (a node whose cables are all dead is its
// own island; kInvalidNode matches nothing — see graph::BatchLabelQuery).
// Observers map their nodes to label slots once, in begin_run
// (label_slot()).
//
// Two paths, bit-identical results:
//  - the 64-lane path (any-failure rule, TrialConfig::engine not kScalar)
//    samples a TrialBatch and gets the largest component and the labels of
//    every lane from the batch union-find (TrialBatchKernel). Connectivity,
//    service availability, DNS resolution, country isolation and run_trials'
//    aggregate observer take whole batches (observe_batch); only observers
//    without a batch path — traffic routing, which walks the masked graph —
//    get per-lane TrialViews, reconstructed as a dead set plus an alive mask;
//  - the scalar path (kScalar, and kFractionFails, which has no batched
//    draw) draws one trial at a time, decomposes the masked graph with
//    graph::connected_components and fills the labels from it
//    (component_labels).
//
// Determinism: every loop runs through sim::ChunkedRun and every observer
// keeps its accumulators in sim::ChunkSlots (sim/chunked.h holds the
// reduction rule and the recipe for writing an observer), so results are
// bit-identical for every thread count.
//
// When to use which engine:
//  - TrialPipeline: many metrics over one model/severity (the report path),
//    or any metric needing connectivity per trial.
//  - FailureSimulator::run_trials: one pipeline pass reduced to the
//    cables/nodes aggregates (no component build).
//  - sim::SweepEngine: one metric across a whole severity grid (CRN-coupled
//    axis, incremental connectivity) — the figure-sweep path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gic/failure_model.h"
#include "graph/components.h"
#include "sim/chunked.h"
#include "sim/monte_carlo.h"
#include "sim/trial_batch.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/stats.h"

namespace solarnet::sim {

class TrialPipeline;

// Everything an observer may read about one trial. References point into
// per-worker scratch and are only valid during the observe() call. The
// connectivity fields (largest_component, mask, labels) are set only when
// some registered observer reports needs_components().
struct TrialView {
  std::size_t trial = 0;
  // Per-cable death flags for this draw (size = network cable count).
  const util::Bitset* cable_dead = nullptr;
  double cables_failed_pct = 0.0;
  // Share of nodes that had >= 1 cable and lost all of them (paper
  // §4.3.1).
  double nodes_unreachable_pct = 0.0;
  // Size of the largest surviving component (all vertices alive, dead
  // cables' edges removed).
  std::size_t largest_component = 0;
  // The alive mask of this draw (mask_for_failures): observers that
  // traverse the masked graph (routing::TrafficObserver's SSSP trees) read
  // it instead of rebuilding it from cable_dead.
  const graph::AliveMask* mask = nullptr;
  // One component label per pipeline query vertex (TrialPipeline::
  // label_slot); null when no observer declared query nodes.
  const std::uint32_t* labels = nullptr;
};

// Everything a batch-capable observer may read about one 64-trial batch on
// the bit-parallel path. The per-lane arrays hold `lanes` entries each,
// lane t for the batch's t-th trial. The percentages come from the
// word-parallel counts with the exact arithmetic of the scalar TrialView,
// so accumulating them is bit-identical to observing the scalar trials one
// by one. Pointers reference per-worker scratch and are only valid during
// the observe_batch() call.
struct BatchTrialView {
  unsigned lanes = 0;
  // cable_dead[c] bit t: cable c dead in lane t (TrialBatch::cable_dead).
  const std::uint64_t* cable_dead = nullptr;
  const double* cables_failed_pct = nullptr;
  const double* nodes_unreachable_pct = nullptr;
  // Largest surviving component size per lane; null unless some observer
  // reports needs_components().
  const std::uint32_t* largest_component = nullptr;
  // Lane t's query labels at labels + t * label_stride (stride = the
  // pipeline's query-vertex count); null when no observer declared query
  // nodes.
  const std::uint32_t* labels = nullptr;
  std::size_t label_stride = 0;
};

// A metric registered with the pipeline. Implementations own their results;
// the pipeline only orchestrates calls. State written by observe() must be
// confined to per-worker scratch and the chunk's ChunkSlots (sim/chunked.h).
class TrialObserver {
 public:
  virtual ~TrialObserver() = default;

  // Whether this observer reads the views' connectivity fields (largest
  // component, mask, labels). The pipeline skips the per-trial
  // connectivity pass when no observer needs it.
  virtual bool needs_components() const { return true; }

  // The nodes whose component labels this observer reads (see the header
  // comment); read once, by TrialPipeline::add_observer. An observer that
  // declares nodes must also report needs_components().
  virtual std::span<const topo::NodeId> query_nodes() const { return {}; }

  // Called once before any trial: size per-worker scratch (worker ids are
  // below `workers`) and the ChunkSlots, and reset previous results.
  virtual void begin_run(const TrialPipeline& pipeline, std::size_t workers,
                         std::size_t chunks) = 0;

  // Called for every trial, from worker threads. Trials of one chunk
  // arrive in ascending order on a single worker.
  virtual void observe(const TrialView& view, std::size_t worker,
                       std::size_t chunk) = 0;

  // Batch fast path. An observer that returns true here receives one
  // observe_batch() per 64-trial batch on the bit-parallel pipeline path
  // instead of 64 observe() calls (observe() is still required — the
  // scalar path and kFractionFails use it). The batch view carries the
  // batch's dead words but no mask. The batch spans whole chunks:
  // lane t belongs to chunk first_chunk + t / kTrialChunk,
  // and accumulating lanes in ascending order into those slots must match
  // the scalar observe() sequence bit-for-bit.
  virtual bool supports_batch() const { return false; }
  // Only invoked when supports_batch() is true.
  virtual void observe_batch(const BatchTrialView& /*view*/,
                             std::size_t /*worker*/,
                             std::size_t /*first_chunk*/) {}

  // Called once after all trials, on the run() thread: reduce the chunk
  // slots (ChunkSlots::merged) into the final result.
  virtual void end_run() = 0;
};

// An observer whose per-chunk accumulator slots can be serialized, so a
// sim::CampaignRunner can checkpoint a partially-run campaign and resume it
// bit-identically. save_chunk / load_chunk forward to ChunkSlots::save /
// load (sim/chunked.h); the runner calls them after begin_run and between
// segments, never concurrently with observe() on the same chunk.
// checkpoint_id() names the observer AND its wire format: bump the version
// suffix whenever the slot's kFields change, and include any configuration
// that changes the slot layout (e.g. a country list) so a checkpoint from a
// differently-configured observer is rejected instead of misapplied.
class CheckpointableObserver : public TrialObserver {
 public:
  virtual std::string checkpoint_id() const = 0;
  virtual void save_chunk(std::size_t chunk, util::ByteWriter& out) const = 0;
  virtual void load_chunk(std::size_t chunk, util::ByteReader& in) = 0;
};

// Reusable per-worker scratch for the scalar trial loop; allocation-free
// once warm. run() owns one per worker; benches driving run_trial()
// manually own their own.
struct PipelineScratch {
  util::Bitset cable_dead;
  graph::AliveMask mask;
  graph::ComponentScratch component_scratch;
  graph::ComponentResult components;
  std::vector<topo::NodeId> unreachable;
  std::vector<std::uint32_t> labels;
};

// The scalar form of the batch kernel's labels: labels[i] for nodes[i]
// under one draw, from `components`, the masked decomposition of that
// draw's `cable_dead` — graph::kNoLabel for kInvalidNode, kIslandBase +
// node when every cable of the node is dead, else its component index.
void component_labels(const topo::InfrastructureNetwork& net,
                      const util::Bitset& cable_dead,
                      const graph::ComponentResult& components,
                      std::span<const topo::NodeId> nodes,
                      std::uint32_t* labels);

// Labels of `nodes` under one dead set without a pipeline: the masked
// decomposition of the network plus component_labels. The standalone
// evaluate() of the reachability evaluators uses it; allocation-free once
// warm.
struct DrawLabels {
  graph::AliveMask mask;
  graph::ComponentScratch scratch;
  graph::ComponentResult components;
  std::vector<std::uint32_t> labels;

  const std::uint32_t* label(const topo::InfrastructureNetwork& net,
                             const util::Bitset& cable_dead,
                             std::span<const topo::NodeId> nodes);
};

// An observer's slice of the pipeline's labels. bind() maps the observer's
// nodes to label slots once (in begin_run); gather() copies one trial's
// labels of those nodes, in the observer's node order, into per-worker
// storage. Allocation-free after bind().
class LabelGather {
 public:
  void bind(const TrialPipeline& pipeline,
            std::span<const topo::NodeId> nodes, std::size_t workers);
  const std::uint32_t* gather(const std::uint32_t* labels,
                              std::size_t worker);
  void release();

 private:
  std::vector<std::uint32_t> slots_;
  std::vector<std::vector<std::uint32_t>> per_worker_;
};

class TrialPipeline {
 public:
  // Folds the death-probability table once; trials draw against it under
  // the any-failure rule and sample the model directly under
  // kFractionFails. Simulator and model must outlive the pipeline.
  TrialPipeline(const FailureSimulator& simulator,
                const gic::RepeaterFailureModel& model);

  const FailureSimulator& simulator() const noexcept { return sim_; }
  const topo::InfrastructureNetwork& network() const noexcept {
    return sim_.network();
  }
  const gic::RepeaterFailureModel& model() const noexcept { return model_; }
  // Per-cable death probabilities of (simulator, model) under the
  // any-failure rule.
  const DeathProbabilityTable& death_table() const noexcept { return table_; }

  // Registers a metric (non-owning; the observer must outlive run()) and
  // adds its query_nodes() to the pipeline's query vertices.
  void add_observer(TrialObserver& observer);

  // The query vertices: every registered observer's query nodes, ascending
  // and distinct. Views carry one label per entry.
  std::span<const topo::NodeId> query_nodes() const noexcept {
    return query_nodes_;
  }
  // Index of `node` in query_nodes(), for observers to map their nodes to
  // label slots in begin_run. Throws std::invalid_argument when no
  // registered observer declared the node.
  std::uint32_t label_slot(topo::NodeId node) const;

  // Runs `trials` draws (trial t from child stream t of `seed`) and fans
  // each TrialView out to every observer. `threads` follows
  // TrialConfig::threads (0 = hardware concurrency); the overload without
  // it uses the simulator's configured thread count. Results live in the
  // observers and are bit-identical for every thread count.
  void run(std::size_t trials, std::uint64_t seed) const;
  void run(std::size_t trials, std::uint64_t seed, std::size_t threads) const;

  // The trial loop itself: runs chunks [chunk_begin, chunk_end) of
  // `chunked` (trial t from base.split(t)) and fans every trial out to the
  // observers, which the caller has brought between begin_run() and
  // end_run() for chunked.chunks() chunks. run() calls it once for all
  // chunks; sim::CampaignRunner once per checkpoint segment. Per-worker
  // scratch is allocated per call. When the table path is active and the
  // simulator's TrialConfig::engine is not kScalar, each task samples one
  // TrialBatch over its chunks (so tasks may span at most two chunks):
  // batch-capable observers get whole batches, the rest per-lane
  // TrialViews reconstructed from the batch (dead set, mask, the lane's
  // largest component and labels) — bit-identical to the scalar loop
  // either way.
  void run_chunks(const ChunkedRun& chunked, const util::Rng& base,
                  std::size_t chunk_begin, std::size_t chunk_end) const;

  // One trial of the scalar loop, for benches/tests that drive it
  // manually: draw from base.split(trial) into `scratch`, rebuild mask,
  // components and labels, call every observer's observe() with the given
  // (worker, chunk) slots. Callers must
  // bracket the loop with the observers' begin_run()/end_run() themselves
  // (run() does all of this). Allocation-free once scratch is warm.
  void run_trial(std::size_t trial, const util::Rng& base,
                 PipelineScratch& scratch, std::size_t worker,
                 std::size_t chunk) const;

 private:
  const FailureSimulator& sim_;
  const gic::RepeaterFailureModel& model_;
  const graph::Csr* csr_;  // the network's cached CSR, resolved once
  DeathProbabilityTable table_;
  bool use_table_ = false;
  std::size_t connected_nodes_ = 0;
  std::vector<TrialObserver*> observers_;
  std::vector<topo::NodeId> query_nodes_;  // ascending, distinct
  bool needs_components_ = false;
  // Built once in the constructor when the batch path is eligible, so run()
  // does not pay kernel construction (or its allocations) per call.
  std::unique_ptr<const TrialBatchKernel> batch_kernel_;
  std::vector<TrialObserver*> batch_observers_;   // supports_batch()
  std::vector<TrialObserver*> scalar_observers_;  // the rest
  bool scalar_needs_mask_ = false;  // a scalar observer needs components
};

// The baseline observer: per-trial cable-loss / node-unreachability
// percentages (bit-identical to FailureSimulator::run_trials for the same
// seed and trial count) plus the largest surviving component share, which
// run_trials does not report because it skips the connectivity pass.
class ConnectivityObserver final : public CheckpointableObserver {
 public:
  struct Result : ConnectivityStats {
    std::size_t trials = 0;
  };

  const Result& result() const noexcept { return result_; }

  bool needs_components() const override { return true; }
  void begin_run(const TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const TrialView& view, std::size_t worker,
               std::size_t chunk) override;
  bool supports_batch() const override { return true; }
  void observe_batch(const BatchTrialView& view, std::size_t worker,
                     std::size_t first_chunk) override;
  void end_run() override;

  std::string checkpoint_id() const override { return "connectivity/v1"; }
  void save_chunk(std::size_t chunk, util::ByteWriter& out) const override;
  void load_chunk(std::size_t chunk, util::ByteReader& in) override;

 private:
  void add(std::size_t chunk, double cables_pct, double nodes_pct,
           std::size_t largest);

  ChunkSlots<ConnectivityStats> slots_{"ConnectivityObserver"};
  std::size_t connected_nodes_ = 0;
  Result result_;
};

}  // namespace solarnet::sim
