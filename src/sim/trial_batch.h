// Bit-parallel Monte-Carlo: 64 trials per machine word.
//
// The scalar engine (monte_carlo.h) packs *cables* into words: one Bitset
// per trial, one trial per pass. TrialBatch flips the layout: each cable
// owns a single u64 lane word whose bit t says "dead in trial
// first_trial + t", so one pass fills 64 trials and every aggregate the
// paper's §4.3 statistics need becomes a word-op across the whole batch:
//
//   - cables failed per trial: 64x64 bit transpose + popcount per lane;
//   - unreachable nodes per trial (>= 1 cable, all dead): one AND over the
//     node's incident cable words covers all 64 trials at once;
//   - largest surviving component per trial, and the component labels of
//     a fixed set of query nodes: the shared-backbone 64-way union-find in
//     graph/batch_components.h.
//
// Determinism contract: trial t still draws from base.split(t) and
// consumes exactly the uniforms the scalar sampler would (one per cable
// with death probability in (0, 1), ascending cable order), so the batch
// dead sets are bit-identical to FailureSimulator::sample_cable_failures
// on the same stream. The Bernoulli
// comparison uniform() < p is evaluated as the exact integer test
// (next_u64() >> 11) < ceil(p * 2^53): uniform() is k * 2^-53 with k and
// the product exactly representable, so the two forms decide identically
// for every stream value, and the integer form lets the sampler interleave
// several lanes' rng chains without waiting on double conversions.
//
// TrialBatchKernel is built once per (simulator, death table) and is
// immutable afterwards; sampling and the aggregate passes are
// allocation-free once the caller's TrialBatch / scratch are warm.
// kFractionFails draws each repeater individually and has no batched form
// — callers keep the scalar path there (TrialPipeline does this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/batch_components.h"
#include "sim/monte_carlo.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace solarnet::sim {

// One batch of up to 64 trials in cable-major layout. Reused across
// batches; every vector is resized in place (allocation-free once warm).
struct TrialBatch {
  std::size_t first_trial = 0;
  unsigned lanes = 0;  // valid trial lanes [0, lanes), lanes <= 64
  std::uint64_t lane_mask = 0;
  // cable_dead[c] bit t: cable c dead in trial first_trial + t.
  std::vector<std::uint64_t> cable_dead;
};

// Scratch for the batched component pass (per worker).
struct BatchConnectivityScratch {
  std::vector<std::uint64_t> edge_dead;
  std::vector<std::uint64_t> query_dark;  // per query node: lanes it is dark
  graph::BatchComponentScratch components;
};

class TrialBatchKernel {
 public:
  static constexpr unsigned kLanes = 64;

  // Snapshots the (simulator, table) pair: per-cable thresholds, the
  // node->cable incidence, and the edge->cable map. Any-failure rule only
  // (the table path); throws std::invalid_argument otherwise or on a table
  // size mismatch. Simulator and its network must outlive the kernel; the
  // table is copied into thresholds and need not.
  TrialBatchKernel(const FailureSimulator& simulator,
                   const DeathProbabilityTable& table);

  const FailureSimulator& simulator() const noexcept { return sim_; }

  // Fills `out` with trials [first_trial, first_trial + lanes) drawn from
  // base.split(t) each — bit-identical to the scalar sampler per lane.
  // lanes must be in [1, 64].
  void sample(const util::Rng& base, std::size_t first_trial, unsigned lanes,
              TrialBatch& out) const;

  // Per-lane aggregate counts; `out` must have room for batch.lanes
  // entries. Word-parallel across the whole batch.
  void count_cables_failed(const TrialBatch& batch, std::uint32_t* out) const;
  void count_unreachable_nodes(const TrialBatch& batch,
                               std::uint32_t* out) const;
  // Largest surviving component per lane (all vertices alive, edges of
  // dead cables removed) via the shared-backbone batch union-find. With
  // `queries`, also writes each lane's component labels of those nodes
  // into `labels` (room for batch.lanes * queries.size(), lane-major; see
  // graph::BatchLabelQuery): a node whose cables are all dead in a lane is
  // its own island, kInvalidNode gets graph::kNoLabel.
  void largest_components(const TrialBatch& batch,
                          BatchConnectivityScratch& scratch,
                          std::uint32_t* out,
                          std::span<const topo::NodeId> queries = {},
                          std::uint32_t* labels = nullptr) const;

  // Reconstructs lane `lane` as a scalar dead set, bit-identical to the
  // Bitset the scalar sampler fills for the same trial. Allocation-free
  // once `dead` is warm. The pipeline uses it for observers without a
  // batch path (traffic routing).
  void extract_lane(const TrialBatch& batch, unsigned lane,
                    util::Bitset& dead) const;

 private:
  const FailureSimulator& sim_;
  std::size_t cables_ = 0;
  // Cables whose draw consumes one uniform per trial (0 < p < 1), in
  // ascending cable order — the scalar sampler's exact stream discipline.
  std::vector<std::uint32_t> consumer_cable_;
  std::vector<std::uint64_t> consumer_threshold_;  // ceil(p * 2^53)
  // Repeater-bearing cables with p >= 1: dead in every lane, no draw.
  std::vector<std::uint32_t> certain_dead_;
  // Flattened node->cable incidence over nodes with >= 1 cable (node ids
  // are irrelevant to the count, so only offsets and cable ids are kept).
  std::vector<std::uint32_t> node_offset_;
  std::vector<std::uint32_t> node_cables_;
  std::vector<std::uint32_t> edge_cable_;  // graph edge -> owning cable
  const graph::Csr* csr_ = nullptr;
};

}  // namespace solarnet::sim
