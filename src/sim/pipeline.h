// Unified trial-observer pipeline: one failure draw, every metric.
//
// The paper's headline results (Figs 6-9, §4.3-§4.4) are all statistics
// over the *same* storm realizations — cable loss, node reachability,
// service/DNS availability and country isolation are facets of one failure
// draw. TrialPipeline makes that structure explicit: each trial samples the
// cable failures once (DeathProbabilityTable under the any-failure rule),
// builds the alive mask and the CSR connected components once into
// per-worker scratch, and fans a TrialView out to every registered
// TrialObserver. Running N metrics costs one sampling + one component
// decomposition per trial instead of N, and — because the observers all see
// the same draw — cross-metric joint statistics (e.g. P(DNS degraded AND
// >X% cables lost)) become expressible.
//
// Determinism: every loop runs through sim::ChunkedRun and every observer
// keeps its accumulators in sim::ChunkSlots (sim/chunked.h holds the
// reduction rule and the recipe for writing an observer), so results are
// bit-identical for every thread count.
//
// When to use which engine:
//  - TrialPipeline: many metrics over one model/severity (the report path),
//    or any metric needing the component decomposition per trial.
//  - FailureSimulator::run_trials: one pipeline pass reduced to the
//    cables/nodes aggregates (no component build).
//  - sim::SweepEngine: one metric across a whole severity grid (CRN-coupled
//    axis, incremental connectivity) — the figure-sweep path.
#pragma once

#include <cstdint>
#include <memory>
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
// per-worker scratch and are only valid during the observe() call.
struct TrialView {
  std::size_t trial = 0;
  // Per-cable death flags for this draw (size = network cable count).
  const util::Bitset* cable_dead = nullptr;
  std::size_t cables_failed = 0;
  double cables_failed_pct = 0.0;
  // Nodes that had >= 1 cable and lost all of them (paper §4.3.1).
  const std::vector<topo::NodeId>* unreachable = nullptr;
  double nodes_unreachable_pct = 0.0;
  // Masked component decomposition over the network's CSR; null when no
  // registered observer reports needs_components().
  const graph::ComponentResult* components = nullptr;
  // The alive mask the components were decomposed over (all vertices
  // alive, dead cables' edges dead — mask_for_failures). Non-null exactly
  // when components is non-null; observers that traverse the masked graph
  // (e.g. routing::TrafficObserver's SSSP trees) read it instead of
  // rebuilding the mask from cable_dead.
  const graph::AliveMask* mask = nullptr;
  // The trial's child rng after the failure draw. Observers that need
  // extra randomness derive independent substreams from it instead of
  // consuming the stream directly (which would couple observers).
  const util::Rng* rng = nullptr;

  util::Rng substream(std::uint64_t key) const { return rng->split(key); }
};

// Everything a batch-capable observer may read about one 64-trial batch on
// the bit-parallel path. Lane t is trial first_trial + t; the per-lane
// arrays hold `lanes` entries each. The counts come from the word-parallel
// kernels and the percentages use the exact arithmetic of the scalar
// TrialView, so accumulating them is bit-identical to observing the scalar
// trials one by one. Pointers reference per-worker scratch and are only
// valid during the observe_batch() call.
struct BatchTrialView {
  std::size_t first_trial = 0;
  unsigned lanes = 0;
  // Raw cable-major lane words (and per-lane post-draw rng states) for
  // observers that want word-level access or extra randomness.
  const TrialBatch* batch = nullptr;
  const std::uint32_t* cables_failed = nullptr;
  const double* cables_failed_pct = nullptr;
  const std::uint32_t* nodes_unreachable = nullptr;
  const double* nodes_unreachable_pct = nullptr;
  // Largest surviving component size per lane; null when no batch-capable
  // observer reports needs_components().
  const std::uint32_t* largest_component = nullptr;
};

// A metric registered with the pipeline. Implementations own their results;
// the pipeline only orchestrates calls. State written by observe() must be
// confined to per-worker scratch and the chunk's ChunkSlots (sim/chunked.h).
class TrialObserver {
 public:
  virtual ~TrialObserver() = default;

  // Whether this observer reads TrialView::components. The pipeline skips
  // the per-trial component build when no observer needs it.
  virtual bool needs_components() const { return true; }

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
  // scalar path and kFractionFails use it). The batch spans whole chunks:
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

// Reusable per-worker scratch for the trial loop; allocation-free once
// warm. run() owns one per worker; benches driving run_trial() manually
// own their own.
struct PipelineScratch {
  util::Bitset cable_dead;
  graph::AliveMask mask;
  graph::ComponentScratch component_scratch;
  graph::ComponentResult components;
  std::vector<topo::NodeId> unreachable;
};

class TrialPipeline {
 public:
  // Folds the death-probability table once (any-failure rule); under
  // kFractionFails trials sample the model directly. Simulator and model
  // must outlive the pipeline.
  TrialPipeline(const FailureSimulator& simulator,
                const gic::RepeaterFailureModel& model);

  const FailureSimulator& simulator() const noexcept { return sim_; }
  const topo::InfrastructureNetwork& network() const noexcept {
    return sim_.network();
  }
  const gic::RepeaterFailureModel& model() const noexcept { return model_; }

  // Registers a metric (non-owning; the observer must outlive run()).
  void add_observer(TrialObserver& observer);
  std::size_t observer_count() const noexcept { return observers_.size(); }

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
  // TrialViews reconstructed from the batch — bit-identical to the scalar
  // loop either way.
  void run_chunks(const ChunkedRun& chunked, const util::Rng& base,
                  std::size_t chunk_begin, std::size_t chunk_end) const;

  // One trial of the loop, for benches/tests that drive it manually: draw
  // from base.split(trial) into `scratch`, rebuild mask/components, call
  // every observer with the given (worker, chunk) slots. Callers must
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
  bool needs_components_ = false;
  // Built once in the constructor when the batch path is eligible, so run()
  // does not pay kernel construction (or its allocations) per call.
  std::unique_ptr<const TrialBatchKernel> batch_kernel_;
  std::vector<TrialObserver*> batch_observers_;   // supports_batch()
  std::vector<TrialObserver*> scalar_observers_;  // the rest
  bool batch_needs_components_ = false;   // any batch observer needs them
  bool scalar_needs_components_ = false;  // any scalar observer needs them
};

// The baseline observer: per-trial cable-loss / node-unreachability
// percentages (bit-identical to FailureSimulator::run_trials for the same
// seed and trial count) plus the largest surviving component share, which
// run_trials does not report because it skips the component build.
class ConnectivityObserver final : public CheckpointableObserver {
 public:
  struct Result {
    std::size_t trials = 0;
    util::RunningStats cables_failed_pct;
    util::RunningStats nodes_unreachable_pct;
    // Largest component size as % of cable-bearing nodes.
    util::RunningStats largest_component_pct;
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
  struct Slot {
    util::RunningStats cables;
    util::RunningStats nodes;
    util::RunningStats largest;
    static constexpr auto kFields =
        std::tuple{&Slot::cables, &Slot::nodes, &Slot::largest};
  };
  void add(std::size_t chunk, double cables_pct, double nodes_pct,
           std::size_t largest);

  ChunkSlots<Slot> slots_{"ConnectivityObserver"};
  std::size_t connected_nodes_ = 0;
  Result result_;
};

}  // namespace solarnet::sim
