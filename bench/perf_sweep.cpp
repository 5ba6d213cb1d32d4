// Sweep-engine benchmark: the old-vs-new acceptance harness for the
// common-random-number batched grid sweep.
//
// main() runs hard validation gates before any timing:
//   1. a non-any-failure rule is rejected up front with invalid_argument,
//   2. run_trial's CRN death indices match an independent per-point Bernoulli
//      thresholding replay, and per-trial dead sets are monotone nested in
//      the grid (the property the reverse-insertion walk relies on),
//   3. run_trial's per-point percentages equal a brute-force recomputation
//      through InfrastructureNetwork::unreachable_nodes,
//   4. batched aggregates are bit-identical across thread counts,
//   5. batched means match G independent run_trials calls within 4
//      combined standard errors at 512 trials (different streams, same
//      marginals), and exactly at the deterministic p = 1 endpoint,
//   6. the steady-state per-trial loop performs ZERO heap allocations,
//   7. the frozen per-point reference (reference::run_trials in
//      bench/reference/trial_loops.h) is bit-identical to run_trials, so it
//      still computes what it replicates,
//   8. on the death indices of real trials, the junction walk
//      (sim::IncrementalConnectivity) reports the same aggregates at every
//      grid point as the frozen node-level walk in
//      bench/reference/incremental.h.
// Any failure exits non-zero, so CI's bench smoke job doubles as an
// equivalence gate. Then it times the old path (G independent per-point
// passes of the frozen reference) against the engine on the paper-scale
// 470-cable submarine network across the default 0.001..1 grid at the
// paper's 10-trial budget and asserts the >= 3x acceptance speedup. Last it
// times bucket + walk per trial, warm, on the gate-8 death indices for the
// junction walk and the frozen walk, asserts the >= 2x walk speedup, and
// emits BENCH_sweep.json.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "alloc_counter.h"
#include "analysis/connectivity.h"
#include "bench_util.h"
#include "datasets/submarine.h"
#include "reference/incremental.h"
#include "reference/trial_loops.h"
#include "sim/incremental.h"
#include "sim/monte_carlo.h"
#include "sim/sweep.h"
#include "util/rng.h"

namespace {

using namespace solarnet;

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}

// Single-threaded simulator so old-vs-new timing compares equal budgets.
const sim::FailureSimulator& submarine_sim() {
  static const sim::FailureSimulator s(submarine(), [] {
    sim::TrialConfig cfg;
    cfg.threads = 1;
    return cfg;
  }());
  return s;
}

const sim::SweepEngine& default_engine() {
  static const sim::SweepEngine engine = sim::SweepEngine::uniform(
      submarine_sim(), analysis::default_probability_grid());
  return engine;
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "perf_sweep equivalence check FAILED: %s\n", what);
  std::exit(1);
}

// --- validation gates -------------------------------------------------------

void check_rule_validation() {
  sim::TrialConfig cfg;
  cfg.rule = sim::CableDeathRule::kFractionFails;
  const sim::FailureSimulator fraction_sim(submarine(), cfg);
  const auto grid = analysis::default_probability_grid();
  bool threw = false;
  try {
    sim::SweepEngine::uniform(fraction_sim, grid);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  if (!threw) fail("kFractionFails rule was not rejected by the engine");
  threw = false;
  try {
    analysis::uniform_failure_sweep(fraction_sim, grid, 2, 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  if (!threw) fail("kFractionFails rule was not rejected by the sweep");
}

// Re-derive run_trial's death indices by thresholding each cable's
// uniform against every grid point independently, and assert the
// per-point dead sets are monotone nested.
void check_crn_thresholds_and_nesting() {
  const sim::SweepEngine& engine = default_engine();
  const std::size_t cables = submarine().cable_count();
  const std::size_t grid = engine.grid_size();
  sim::SweepScratch scratch;
  const std::vector<std::uint32_t>& index = scratch.death_index;
  const util::Rng base(1234);
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    util::Rng rng = base.split(trial);
    engine.run_trial(rng, scratch);
    util::Rng replay = base.split(trial);
    for (topo::CableId c = 0; c < cables; ++c) {
      if (submarine_sim().cable_repeater_count(c) == 0) {
        if (index[c] != grid) fail("repeaterless cable marked mortal");
        continue;
      }
      const double u = replay.uniform();
      bool dead_before = false;
      for (std::size_t g = 0; g < grid; ++g) {
        const bool dead = u < engine.grid_probability(g, c);
        if (dead_before && !dead) fail("dead sets are not monotone nested");
        if (dead != (index[c] <= g)) {
          fail("death index disagrees with Bernoulli thresholding");
        }
        dead_before = dead;
      }
    }
  }
}

// Brute-force every grid point of a few trials through the reference
// unreachable_nodes path and compare with run_trial's percentages.
void check_trial_against_bruteforce() {
  const sim::SweepEngine& engine = default_engine();
  const auto& net = submarine();
  const std::size_t cables = net.cable_count();
  const double connected =
      static_cast<double>(net.connected_node_count());
  sim::SweepScratch scratch;
  const std::vector<std::uint32_t>& index = scratch.death_index;
  const util::Rng base(777);
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    util::Rng rng = base.split(trial);
    engine.run_trial(rng, scratch);
    for (std::size_t g = 0; g < engine.grid_size(); ++g) {
      std::vector<bool> dead(cables, false);
      std::size_t dead_count = 0;
      for (topo::CableId c = 0; c < cables; ++c) {
        if (index[c] <= g) {
          dead[c] = true;
          ++dead_count;
        }
      }
      const double cables_pct =
          100.0 * static_cast<double>(dead_count) /
          static_cast<double>(cables);
      const double nodes_pct =
          100.0 * static_cast<double>(net.unreachable_nodes(dead).size()) /
          connected;
      if (std::abs(scratch.cables_pct[g] - cables_pct) > 1e-9 ||
          std::abs(scratch.nodes_pct[g] - nodes_pct) > 1e-9) {
        fail("run_trial percentages diverge from brute-force recomputation");
      }
    }
  }
}

void check_thread_bit_identity() {
  const sim::SweepEngine& engine = default_engine();
  constexpr std::size_t kTrials = 100;
  const sim::SweepResult serial = engine.run(kTrials, 9, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{0}}) {
    const sim::SweepResult parallel = engine.run(kTrials, 9, threads);
    for (std::size_t g = 0; g < engine.grid_size(); ++g) {
      const auto& s = serial.points[g];
      const auto& p = parallel.points[g];
      if (s.cables_failed_pct.mean() != p.cables_failed_pct.mean() ||
          s.cables_failed_pct.sample_stddev() !=
              p.cables_failed_pct.sample_stddev() ||
          s.nodes_unreachable_pct.mean() != p.nodes_unreachable_pct.mean() ||
          s.nodes_unreachable_pct.sample_stddev() !=
              p.nodes_unreachable_pct.sample_stddev() ||
          s.largest_component_pct.mean() != p.largest_component_pct.mean()) {
        fail("batched aggregates diverged across thread counts");
      }
    }
  }
}

// The engine shares randomness across points, the old path redraws per
// point — so the comparison is statistical: at 512 trials each, per-point
// means must agree within 4 combined standard errors. p = 1 is
// deterministic, so it must agree exactly.
void check_statistical_equivalence() {
  const auto grid = analysis::default_probability_grid();
  const sim::SweepEngine& engine = default_engine();
  constexpr std::size_t kTrials = 512;
  const sim::SweepResult batched = engine.run(kTrials, 31, 0);
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const gic::UniformFailureModel model(grid[g]);
    const sim::AggregateResult indep =
        submarine_sim().run_trials(model, kTrials, 4000 + g);
    const auto check = [&](const util::RunningStats& a,
                           const util::RunningStats& b, const char* what) {
      const double se = std::sqrt(
          (a.sample_variance() + b.sample_variance()) /
          static_cast<double>(kTrials));
      if (std::abs(a.mean() - b.mean()) > 4.0 * se + 1e-9) {
        std::fprintf(stderr,
                     "perf_sweep equivalence check FAILED: %s means differ "
                     "at p=%g (batched %.4f vs independent %.4f, se %.4f)\n",
                     what, grid[g], a.mean(), b.mean(), se);
        std::exit(1);
      }
    };
    check(batched.points[g].cables_failed_pct, indep.cables_failed_pct,
          "cables-failed");
    check(batched.points[g].nodes_unreachable_pct,
          indep.nodes_unreachable_pct, "nodes-unreachable");
    if (grid[g] == 1.0 &&
        (batched.points[g].cables_failed_pct.mean() !=
             indep.cables_failed_pct.mean() ||
         batched.points[g].nodes_unreachable_pct.mean() !=
             indep.nodes_unreachable_pct.mean())) {
      fail("deterministic p=1 endpoint diverged from run_trials");
    }
  }
}

// Once the scratch is warm, the batched trial loop never allocates. The
// counted pass replays the warm-up's exact draw sequence.
void check_zero_steady_state_allocations() {
  const sim::SweepEngine& engine = default_engine();
  sim::SweepScratch scratch;
  const util::Rng base(55);
  constexpr std::size_t kSteadyTrials = 64;
  auto run = [&] {
    for (std::uint64_t t = 0; t < kSteadyTrials; ++t) {
      util::Rng rng = base.split(t);
      engine.run_trial(rng, scratch);
    }
  };
  run();  // warm every buffer over the same sequence
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  if (after != before) {
    std::fprintf(stderr,
                 "perf_sweep equivalence check FAILED: steady-state trial "
                 "loop allocated %zu times over %zu trials\n",
                 after - before, kSteadyTrials);
    std::exit(1);
  }
}

// The frozen reference must still compute what run_trials does: bit-identical
// aggregates at every grid point, across several chunks.
void check_reference_matches_run_trials() {
  const auto grid = analysis::default_probability_grid();
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const gic::UniformFailureModel model(grid[g]);
    const sim::AggregateResult ref =
        reference::run_trials(submarine_sim(), model, 100, 600 + g);
    const sim::AggregateResult live =
        submarine_sim().run_trials(model, 100, 600 + g);
    if (ref.cables_failed_pct.mean() != live.cables_failed_pct.mean() ||
        ref.cables_failed_pct.sample_stddev() !=
            live.cables_failed_pct.sample_stddev() ||
        ref.nodes_unreachable_pct.mean() != live.nodes_unreachable_pct.mean() ||
        ref.nodes_unreachable_pct.sample_stddev() !=
            live.nodes_unreachable_pct.sample_stddev()) {
      fail("frozen reference diverged from run_trials");
    }
  }
}

// Death indices of kWalkTrials default-engine trials, trial-major: the
// first-dead arrays the walk gate checks and times.
constexpr std::size_t kWalkTrials = 1024;

std::vector<std::uint32_t> walk_death_indices() {
  const sim::SweepEngine& engine = default_engine();
  const std::size_t cables = submarine().cable_count();
  std::vector<std::uint32_t> indices(kWalkTrials * cables);
  sim::SweepScratch scratch;
  const util::Rng base(2203);
  for (std::uint64_t t = 0; t < kWalkTrials; ++t) {
    util::Rng rng = base.split(t);
    engine.run_trial(rng, scratch);
    std::copy(scratch.death_index.begin(), scratch.death_index.end(),
              indices.begin() + static_cast<std::ptrdiff_t>(t * cables));
  }
  return indices;
}

// One trial's death indices out of walk_death_indices().
std::span<const std::uint32_t> walk_trial(
    const std::vector<std::uint32_t>& indices, std::size_t trial) {
  const std::size_t cables = submarine().cable_count();
  return {indices.data() + trial * cables, cables};
}

// Bucket + walk of every trial; returns a checksum of the aggregates so
// the timed loop cannot be optimized away.
template <typename Walk, typename Scratch>
std::size_t walk_all(const Walk& walk,
                     const std::vector<std::uint32_t>& indices,
                     Scratch& scratch) {
  const std::size_t grid = default_engine().grid_size();
  std::size_t sum = 0;
  for (std::size_t t = 0; t < kWalkTrials; ++t) {
    walk.bucket_by_first_dead(walk_trial(indices, t), grid, scratch);
    walk.walk(grid, scratch,
              [&](std::size_t, const sim::IncrementalAggregates& agg) {
                sum += agg.alive_cables + agg.lit_nodes + agg.largest;
              });
  }
  return sum;
}

void check_walk_matches_frozen(const sim::IncrementalConnectivity& live,
                               const reference::IncrementalConnectivity& frozen,
                               const std::vector<std::uint32_t>& indices) {
  const std::size_t grid = default_engine().grid_size();
  sim::IncrementalScratch live_scratch;
  reference::IncrementalScratch frozen_scratch;
  std::vector<sim::IncrementalAggregates> walked(grid);
  for (std::size_t t = 0; t < kWalkTrials; ++t) {
    live.bucket_by_first_dead(walk_trial(indices, t), grid, live_scratch);
    live.walk(grid, live_scratch,
              [&](std::size_t g, const sim::IncrementalAggregates& agg) {
                walked[g] = agg;
              });
    frozen.bucket_by_first_dead(walk_trial(indices, t), grid, frozen_scratch);
    frozen.walk(grid, frozen_scratch,
                [&](std::size_t g, const sim::IncrementalAggregates& agg) {
                  if (walked[g].alive_cables != agg.alive_cables ||
                      walked[g].lit_nodes != agg.lit_nodes ||
                      walked[g].largest != agg.largest) {
                    fail("junction walk diverged from the frozen walk");
                  }
                });
  }
}

}  // namespace

int main() {
  check_rule_validation();
  check_crn_thresholds_and_nesting();
  check_trial_against_bruteforce();
  check_thread_bit_identity();
  check_statistical_equivalence();
  check_zero_steady_state_allocations();
  check_reference_matches_run_trials();
  const sim::IncrementalConnectivity live_walk(submarine());
  const reference::IncrementalConnectivity frozen_walk(submarine());
  const std::vector<std::uint32_t> walk_indices = walk_death_indices();
  check_walk_matches_frozen(live_walk, frozen_walk, walk_indices);
  std::printf("perf_sweep: all equivalence checks passed\n");

  // --- timing: the acceptance comparison ------------------------------------
  // Old path: G independent passes of the frozen scalar reference (each
  // rebuilds the death table and reruns connectivity per trial). New path:
  // one batched engine run. Both single-threaded, paper budget of 10
  // trials, default grid.
  const auto grid = analysis::default_probability_grid();
  constexpr std::size_t kTrials = 10;
  constexpr std::uint64_t kSeed = 1859;

  const double old_ms = benchutil::time_best_ms([&] {
    for (std::size_t g = 0; g < grid.size(); ++g) {
      const gic::UniformFailureModel model(grid[g]);
      const sim::AggregateResult agg =
          reference::run_trials(submarine_sim(), model, kTrials, kSeed + g);
      if (agg.cables_failed_pct.count() != kTrials) std::exit(1);
    }
  }, 5);

  // Engine construction (death tables for the whole grid) counts toward
  // the new path: it is what a cold figure run pays.
  const double new_ms = benchutil::time_best_ms([&] {
    const sim::SweepEngine engine = sim::SweepEngine::uniform(
        submarine_sim(), grid);
    const sim::SweepResult result = engine.run(kTrials, kSeed, 1);
    if (result.points.back().cables_failed_pct.count() != kTrials) {
      std::exit(1);
    }
  }, 5);

  const double warm_ms = benchutil::time_best_ms([&] {
    const sim::SweepResult result = default_engine().run(kTrials, kSeed, 1);
    if (result.trials != kTrials) std::exit(1);
  }, 5);

  const double speedup = old_ms / new_ms;
  std::printf("perf_sweep: default grid (%zu points), %zu trials, 470-cable "
              "network\n", grid.size(), kTrials);
  std::printf("  old (G x frozen scalar, 1 thr): %8.3f ms\n", old_ms);
  std::printf("  new (batched engine, cold):     %8.3f ms\n", new_ms);
  std::printf("  new (batched engine, warm):     %8.3f ms\n", warm_ms);
  std::printf("  speedup (old/new cold):         %8.2fx\n", speedup);

  // Bucket + walk per trial on the same death indices. The two walks
  // alternate over seven rounds of three passes and each keeps its best
  // pass, so a slow spell on a shared host lands on both rather than on
  // one.
  sim::IncrementalScratch live_scratch;
  reference::IncrementalScratch frozen_scratch;
  const std::size_t live_sum =
      walk_all(live_walk, walk_indices, live_scratch);
  if (walk_all(frozen_walk, walk_indices, frozen_scratch) != live_sum) {
    fail("junction walk checksum diverged from the frozen walk");
  }
  double walk_ms = -1.0;
  double walk_frozen_ms = -1.0;
  const auto keep_best = [](double& best, double ms) {
    if (best < 0.0 || ms < best) best = ms;
  };
  for (int round = 0; round < 7; ++round) {
    keep_best(walk_ms, benchutil::time_best_ms([&] {
      if (walk_all(live_walk, walk_indices, live_scratch) != live_sum) {
        std::exit(1);
      }
    }, 3));
    keep_best(walk_frozen_ms, benchutil::time_best_ms([&] {
      if (walk_all(frozen_walk, walk_indices, frozen_scratch) != live_sum) {
        std::exit(1);
      }
    }, 3));
  }
  const double walk_us =
      walk_ms * 1000.0 / static_cast<double>(kWalkTrials);
  const double walk_frozen_us =
      walk_frozen_ms * 1000.0 / static_cast<double>(kWalkTrials);
  const double walk_speedup = walk_frozen_us / walk_us;
  std::printf("  walk per trial (bucket + walk, %zu trials, warm):\n",
              kWalkTrials);
  std::printf("    junction walk:                %8.3f us\n", walk_us);
  std::printf("    frozen node-level walk:       %8.3f us\n", walk_frozen_us);
  std::printf("    walk speedup (frozen/live):   %8.2fx\n", walk_speedup);

  benchutil::write_bench_json(
      "sweep", {{"grid_points", static_cast<double>(grid.size()), "count"},
                {"trials", static_cast<double>(kTrials), "count"},
                {"old_grid_sweep_ms", old_ms, "ms"},
                {"new_grid_sweep_cold_ms", new_ms, "ms"},
                {"new_grid_sweep_warm_ms", warm_ms, "ms"},
                {"speedup_cold", speedup, "x"},
                {"walk_us", walk_us, "us"},
                {"walk_frozen_us", walk_frozen_us, "us"},
                {"walk_speedup", walk_speedup, "x"}});

  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "perf_sweep FAILED: speedup %.2fx below the 3x acceptance "
                 "threshold\n", speedup);
    return 1;
  }
  if (walk_speedup < 2.0) {
    std::fprintf(stderr,
                 "perf_sweep FAILED: walk speedup %.2fx below the 2x "
                 "acceptance threshold\n", walk_speedup);
    return 1;
  }
  return 0;
}
