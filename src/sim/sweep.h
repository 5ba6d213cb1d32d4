// Batched Monte-Carlo sweeps across a severity axis (Figures 6-8).
//
// Every figure in the paper is a *grid*: the same network evaluated at a
// whole axis of failure probabilities. Running the grid as G independent
// run_trials calls redraws the randomness and rebuilds connectivity from
// scratch G times per trial budget. SweepEngine collapses that to ~one
// trial's work per trial:
//
//  * Common random numbers (CRN). Each trial draws ONE uniform u_c per
//    repeater-bearing cable and thresholds it against the entire grid of
//    per-cable death probabilities. Because the grid is monotone (each
//    point's per-cable probability >= the previous point's — validated at
//    construction), the dead-cable sets are monotone nested in the axis:
//    dead(g) ⊆ dead(g+1). One draw prices every grid point, and the shared
//    randomness cancels sampling noise *between* grid points, so sweep
//    curves come out smoother (and exactly monotone per trial) even at the
//    paper's 10-trial budget.
//
//  * Incremental connectivity by reverse insertion. Per trial the engine
//    walks the grid from the most severe point to the least severe,
//    *resurrecting* cables into a reusable incremental union-find (offline
//    decremental connectivity). Whole-grid unreachable-node counts and
//    largest-component sizes cost one component build per trial instead of
//    G. The walk itself lives in sim/incremental.h
//    (IncrementalConnectivity), shared with the time-axis TimelineEngine.
//    All scratch lives in SweepScratch: the steady-state per-trial loop
//    performs zero heap allocations (asserted by bench/perf_sweep.cpp).
//
// Determinism: trial t draws from child stream t of the run seed,
// consuming exactly one uniform per repeater-bearing cable in ascending
// cable order (repeaterless cables are skipped, like
// sample_cable_failures), and trials reduce by the chunked rule of
// sim/chunked.h — bit-identical aggregates for every thread count. Against
// independent per-point run_trials passes the engine is *statistically*
// equivalent: identical per-point marginals, different streams.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/incremental.h"
#include "sim/monte_carlo.h"
#include "util/stats.h"

namespace solarnet::sim {

// Aggregates for one grid point, in grid order (least severe first).
struct SweepPointAggregate {
  // The axis value this point was evaluated at: the uniform repeater
  // failure probability for uniform() grids, the caller-supplied label (or
  // the grid index) for explicit table grids.
  double axis = 0.0;
  util::RunningStats cables_failed_pct;
  util::RunningStats nodes_unreachable_pct;
  // Largest surviving component, as % of nodes with >= 1 cable. Isolated
  // vertices count as singleton components.
  util::RunningStats largest_component_pct;
};

struct SweepResult {
  std::vector<SweepPointAggregate> points;
  std::size_t trials = 0;
};

// Reusable per-worker scratch for the batched trial loop. All buffers are
// sized on first use and never shrink, so a warm scratch makes
// SweepEngine::run_trial allocation-free.
struct SweepScratch {
  std::vector<double> uniforms;            // one CRN draw per mortal cable
  std::vector<std::uint32_t> death_index;  // per cable: first dead point
  IncrementalScratch inc;                  // resurrection-walk buffers
  // Per-point percentages of the current trial, in grid order.
  std::vector<double> cables_pct;
  std::vector<double> nodes_pct;
  std::vector<double> largest_pct;
};

class SweepEngine {
 public:
  // Grid of per-cable death-probability tables ordered least to most
  // severe. Throws std::invalid_argument when the simulator's rule is not
  // kAnyRepeaterFails (CRN thresholding prices exactly that rule), when
  // the grid is empty or a table's size mismatches the network, when a
  // probability is outside [0, 1], or when the grid is not monotone
  // non-decreasing per cable (the nesting the reverse walk relies on).
  // `axis` optionally labels the grid points (defaults to the grid index);
  // it must be empty or match the grid size. The simulator (and its
  // network) must outlive the engine.
  SweepEngine(const FailureSimulator& simulator,
              std::vector<DeathProbabilityTable> grid,
              std::vector<double> axis = {});

  // The paper's uniform-model grid: one table per probability, labelled by
  // the probability. `probs` must be sorted ascending (duplicates allowed)
  // — uniform death probabilities are monotone in p, so the grid validates
  // by construction.
  static SweepEngine uniform(const FailureSimulator& simulator,
                             std::span<const double> probs);

  const FailureSimulator& simulator() const noexcept { return sim_; }
  std::size_t grid_size() const noexcept { return grid_size_; }
  double axis(std::size_t g) const { return axis_.at(g); }
  // Death probability of `cable` at grid point `g`.
  double grid_probability(std::size_t g, topo::CableId cable) const;

  // `trials` batched draws; trial t uses child stream t of `seed`.
  // Runs on the simulator's config().threads workers (or the explicit
  // `threads` override; 0 = hardware concurrency). The aggregates are
  // bit-identical for every thread count.
  SweepResult run(std::size_t trials, std::uint64_t seed) const;
  SweepResult run(std::size_t trials, std::uint64_t seed,
                  std::size_t threads) const;

  // One full batched trial. The CRN draw takes one uniform per
  // repeater-bearing cable (in ascending cable order) and writes
  // scratch.death_index: per cable, the first grid index at which it is
  // dead — grid_size() when it survives the whole axis. The dead set at
  // point g is exactly {c : death_index[c] <= g}, so nesting holds by
  // construction; SweepTest and bench/perf_sweep.cpp re-derive the indices
  // from an independent replay of the stream to prove they match per-point
  // Bernoulli draws. The reverse-resurrection walk then fills
  // scratch.cables_pct / nodes_pct / largest_pct (indexed by grid point).
  // Allocation-free once `scratch` is warm.
  void run_trial(util::Rng& rng, SweepScratch& scratch) const;

 private:
  const FailureSimulator& sim_;
  std::size_t grid_size_ = 0;
  std::vector<double> axis_;
  // Transposed grid: probability_[c * grid_size_ + g] is cable c's death
  // probability at point g — one contiguous non-decreasing row per cable,
  // so the per-cable threshold search is a cache-local upper_bound.
  std::vector<double> probability_;
  // Shared resurrection-walk core (per-cable edges/nodes, flattened once).
  IncrementalConnectivity inc_;
  // Repeater-bearing cables in ascending order — the only ones that draw.
  std::vector<std::uint32_t> mortal_;
};

}  // namespace solarnet::sim
