#include "sim/sweep.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/chunked.h"

namespace solarnet::sim {

SweepEngine::SweepEngine(const FailureSimulator& simulator,
                         std::vector<DeathProbabilityTable> grid,
                         std::vector<double> axis)
    : sim_(simulator),
      grid_size_(grid.size()),
      axis_(std::move(axis)),
      inc_(simulator.network()) {
  if (sim_.config().rule != CableDeathRule::kAnyRepeaterFails) {
    throw std::invalid_argument(
        "SweepEngine: CRN grid thresholding models the any-repeater-fails "
        "rule only; construct the FailureSimulator with "
        "CableDeathRule::kAnyRepeaterFails");
  }
  if (grid_size_ == 0) {
    throw std::invalid_argument("SweepEngine: empty probability grid");
  }
  if (axis_.empty()) {
    axis_.reserve(grid_size_);
    for (std::size_t g = 0; g < grid_size_; ++g) {
      axis_.push_back(static_cast<double>(g));
    }
  } else if (axis_.size() != grid_size_) {
    throw std::invalid_argument("SweepEngine: axis size mismatches grid");
  }

  const topo::InfrastructureNetwork& net = sim_.network();
  const std::size_t cables = net.cable_count();
  // Transpose to one contiguous non-decreasing row per cable, validating
  // bounds and the per-cable monotonicity the nested-dead-set walk needs.
  probability_.resize(cables * grid_size_);
  for (std::size_t g = 0; g < grid_size_; ++g) {
    if (grid[g].probability.size() != cables) {
      throw std::invalid_argument("SweepEngine: grid table size mismatch");
    }
    for (topo::CableId c = 0; c < cables; ++c) {
      const double p = grid[g].probability[c];
      if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument(
            "SweepEngine: death probability outside [0, 1]");
      }
      if (g > 0 && p < probability_[c * grid_size_ + g - 1]) {
        throw std::invalid_argument(
            "SweepEngine: grid not monotone per cable (order points least "
            "to most severe)");
      }
      probability_[c * grid_size_ + g] = p;
    }
  }

  // The graph geometry for the resurrection walk (per-cable edges, unique
  // incident nodes, connected-node denominator) lives in inc_; the engine
  // only keeps the draw list of repeater-bearing cables.
  for (topo::CableId c = 0; c < cables; ++c) {
    if (sim_.cable_repeater_count(c) > 0) {
      mortal_.push_back(static_cast<std::uint32_t>(c));
    }
  }
}

SweepEngine SweepEngine::uniform(const FailureSimulator& simulator,
                                 std::span<const double> probs) {
  // Finiteness first, with the offending index: NaN compares false against
  // everything, so a NaN grid point would sail through both the is_sorted
  // gate below (NaN never reports a descending pair) and a naive
  // !(p < 0 || p > 1) range check, then poison every table it touches.
  for (std::size_t g = 0; g < probs.size(); ++g) {
    if (!std::isfinite(probs[g])) {
      throw std::invalid_argument(
          "SweepEngine::uniform: non-finite probability at index " +
          std::to_string(g));
    }
  }
  if (!std::is_sorted(probs.begin(), probs.end())) {
    throw std::invalid_argument(
        "SweepEngine::uniform: probabilities must be sorted ascending");
  }
  // Closed form for the uniform model: every repeater fails i.i.d. with
  // probability p, so a k-repeater cable dies with 1 - (1-p)^k. The powers
  // are built by iterated multiplication (survive[k] = survive[k-1] *
  // (1-p)), the same factor sequence death_probability_table multiplies
  // per cable — so the tables are bit-identical to the generic path at
  // O(cables + max_repeaters) per point instead of O(total_repeaters).
  const std::size_t cables = simulator.network().cable_count();
  std::size_t max_repeaters = 0;
  for (topo::CableId c = 0; c < cables; ++c) {
    max_repeaters = std::max(max_repeaters, simulator.cable_repeater_count(c));
  }
  std::vector<double> survive(max_repeaters + 1);
  std::vector<DeathProbabilityTable> grid(probs.size());
  for (std::size_t g = 0; g < probs.size(); ++g) {
    const double p = probs[g];
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument(
          "SweepEngine::uniform: probability outside [0, 1]");
    }
    survive[0] = 1.0;
    for (std::size_t k = 1; k <= max_repeaters; ++k) {
      survive[k] = survive[k - 1] * (1.0 - p);
    }
    grid[g].probability.resize(cables);
    for (topo::CableId c = 0; c < cables; ++c) {
      const std::size_t k = simulator.cable_repeater_count(c);
      grid[g].probability[c] = k == 0 ? 0.0 : 1.0 - survive[k];
    }
  }
  return SweepEngine(simulator, std::move(grid),
                     std::vector<double>(probs.begin(), probs.end()));
}

double SweepEngine::grid_probability(std::size_t g,
                                     topo::CableId cable) const {
  if (g >= grid_size_ || cable >= sim_.network().cable_count()) {
    throw std::out_of_range("SweepEngine::grid_probability");
  }
  return probability_[cable * grid_size_ + g];
}

void SweepEngine::run_trial(util::Rng& rng, SweepScratch& s) const {
  const std::size_t cables = sim_.network().cable_count();
  const std::size_t grid = grid_size_;

  // The CRN draw: one uniform per mortal cable in ascending cable order
  // (repeaterless cables never die of GIC and consume no randomness,
  // exactly like sample_cable_failures). The serial rng dependency chain
  // runs alone, then the threshold counting loop vectorizes without it.
  s.uniforms.resize(mortal_.size());
  for (std::size_t i = 0; i < mortal_.size(); ++i) {
    s.uniforms[i] = rng.uniform();
  }
  // The cable is dead at point g iff u < probability[g] (the Bernoulli
  // rule); its row is non-decreasing, so `u < row[g]` is a monotone
  // predicate and the suffix count gives the first dead point. The
  // branchless sweep beats a binary search at figure-scale grid sizes (no
  // data-dependent branches to mispredict).
  s.death_index.assign(cables, static_cast<std::uint32_t>(grid));
  for (std::size_t i = 0; i < mortal_.size(); ++i) {
    const double u = s.uniforms[i];
    const double* row = probability_.data() + mortal_[i] * grid;
    std::uint32_t dead_points = 0;
    for (std::size_t g = 0; g < grid; ++g) {
      dead_points += u < row[g] ? 1u : 0u;
    }
    s.death_index[mortal_[i]] = static_cast<std::uint32_t>(grid) - dead_points;
  }

  // Reverse-resurrection walk over the shared core. The alive set when the
  // callback fires at point g is exactly {c : death_index[c] > g} — point
  // g's state.
  inc_.bucket_by_first_dead(s.death_index, grid, s.inc);
  s.cables_pct.resize(grid);
  s.nodes_pct.resize(grid);
  s.largest_pct.resize(grid);
  const std::size_t connected = inc_.connected_node_count();
  inc_.walk(grid, s.inc,
            [&](std::size_t g, const IncrementalAggregates& agg) {
              const std::size_t dead = cables - agg.alive_cables;
              s.cables_pct[g] = cables > 0
                                    ? 100.0 * static_cast<double>(dead) /
                                          static_cast<double>(cables)
                                    : 0.0;
              const std::size_t unreachable = connected - agg.lit_nodes;
              s.nodes_pct[g] =
                  connected > 0 ? 100.0 * static_cast<double>(unreachable) /
                                      static_cast<double>(connected)
                                : 0.0;
              s.largest_pct[g] =
                  connected > 0 ? 100.0 * static_cast<double>(agg.largest) /
                                      static_cast<double>(connected)
                                : 0.0;
            });
}

SweepResult SweepEngine::run(std::size_t trials, std::uint64_t seed) const {
  return run(trials, seed, sim_.config().threads);
}

namespace {

// One grid point's per-chunk accumulators.
struct PointSlot {
  util::RunningStats cables;
  util::RunningStats nodes;
  util::RunningStats largest;
  static constexpr auto kFields =
      std::tuple{&PointSlot::cables, &PointSlot::nodes, &PointSlot::largest};
};

}  // namespace

SweepResult SweepEngine::run(std::size_t trials, std::uint64_t seed,
                             std::size_t threads) const {
  const ChunkedRun chunked(trials, threads);
  ChunkSlots<PointSlot> slots("SweepEngine");
  slots.assign(chunked.chunks(), grid_size_);
  std::vector<SweepScratch> scratch(chunked.workers());
  const util::Rng base(seed);
  chunked.run([&](const ChunkTask& task) {
    SweepScratch& s = scratch[task.worker];
    for (std::size_t t = task.begin; t < task.end; ++t) {
      util::Rng rng = base.split(t);
      run_trial(rng, s);
      for (std::size_t g = 0; g < grid_size_; ++g) {
        PointSlot& slot = slots.at(task.first_chunk, g);
        slot.cables.add(s.cables_pct[g]);
        slot.nodes.add(s.nodes_pct[g]);
        slot.largest.add(s.largest_pct[g]);
      }
    }
  });

  SweepResult result;
  result.trials = trials;
  result.points.resize(grid_size_);
  for (std::size_t g = 0; g < grid_size_; ++g) {
    const PointSlot merged = slots.merged(g);
    result.points[g] = {axis_[g], merged.cables, merged.nodes, merged.largest};
  }
  return result;
}

}  // namespace solarnet::sim
