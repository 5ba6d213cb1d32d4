// Bit-parallel trial-batch benchmark: the scalar-vs-batched acceptance
// harness for the 64-trials-per-word Monte-Carlo kernel.
//
// main() runs hard validation gates before any timing:
//   1. batch dead sets are bit-identical to the scalar sampler lane by
//      lane,
//   2. run_trials under the default (batched) engine is bit-identical to
//      TrialEngine::kScalar at every thread count and every moment,
//   3. the batched pipeline feeds ConnectivityObserver and the scalar
//      observers the same numbers as the scalar pipeline,
//   4. the steady-state batch loop (sample + all three aggregate passes)
//      performs ZERO heap allocations,
//   5. figure-checkpoint sanity through the batch path: uniform p = 0.01
//      at 150 km spacing loses ~15.8% of submarine cables / ~11.0% of
//      nodes (paper §4.3.1).
// Any failure exits non-zero, so CI's bench smoke job doubles as an
// equivalence gate. Then it times scalar-engine run_trials against the
// batched engine on the same budget, asserts the >= 5x acceptance
// speedup, and emits BENCH_batch.json.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "alloc_counter.h"
#include "bench_util.h"
#include "datasets/submarine.h"
#include "gic/failure_model.h"
#include "services/availability.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "sim/trial_batch.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace {

using namespace solarnet;

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}

sim::TrialConfig config_with(sim::TrialEngine engine, std::size_t threads) {
  sim::TrialConfig cfg;
  cfg.engine = engine;
  cfg.threads = threads;
  return cfg;
}

const gic::LatitudeBandFailureModel& s1_model() {
  static const auto model = gic::LatitudeBandFailureModel::s1();
  return model;
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "perf_batch equivalence check FAILED: %s\n", what);
  std::exit(1);
}

void check_stats_identical(const util::RunningStats& a,
                           const util::RunningStats& b, const char* what) {
  if (a.count() != b.count() || a.mean() != b.mean() ||
      a.sample_stddev() != b.sample_stddev() || a.min() != b.min() ||
      a.max() != b.max()) {
    fail(what);
  }
}

// --- validation gates -------------------------------------------------------

// Gate 1: lane-by-lane dead sets equal the scalar sampler's.
void check_sampler_bit_identity() {
  const sim::FailureSimulator simulator(
      submarine(), config_with(sim::TrialEngine::kAuto, 1));
  const auto table = simulator.death_probability_table(s1_model());
  const sim::TrialBatchKernel kernel(simulator, table);
  const util::Rng base(911);
  sim::TrialBatch batch;
  util::Bitset lane_dead, scalar_dead;
  for (const std::size_t first : {std::size_t{0}, std::size_t{64},
                                  std::size_t{4096}}) {
    kernel.sample(base, first, sim::TrialBatchKernel::kLanes, batch);
    for (unsigned lane = 0; lane < batch.lanes; ++lane) {
      kernel.extract_lane(batch, lane, lane_dead);
      util::Rng rng = base.split(first + lane);
      simulator.sample_cable_failures(table, rng, scalar_dead);
      if (!(lane_dead == scalar_dead)) {
        fail("batch dead set diverged from the scalar sampler");
      }
    }
  }
}

// Gate 2: run_trials is engine- and thread-invariant, moment for moment.
void check_run_trials_bit_identity() {
  constexpr std::size_t kTrials = 300;
  constexpr std::uint64_t kSeed = 42;
  const sim::FailureSimulator scalar_sim(
      submarine(), config_with(sim::TrialEngine::kScalar, 1));
  const sim::AggregateResult reference =
      scalar_sim.run_trials(s1_model(), kTrials, kSeed);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    const sim::FailureSimulator batched_sim(
        submarine(), config_with(sim::TrialEngine::kAuto, threads));
    const sim::AggregateResult batched =
        batched_sim.run_trials(s1_model(), kTrials, kSeed);
    if (batched.trials != reference.trials) {
      fail("batched run_trials trial count diverged from scalar engine");
    }
    check_stats_identical(batched.cables_failed_pct,
                          reference.cables_failed_pct,
                          "cables-failed diverged from the scalar engine");
    check_stats_identical(batched.nodes_unreachable_pct,
                          reference.nodes_unreachable_pct,
                          "nodes-unreachable diverged from the scalar engine");
  }
}

// Gate 3: the batched pipeline (fast-path ConnectivityObserver + scalar
// AvailabilityObserver over reconstructed lanes) matches the scalar
// pipeline at every thread count.
void check_pipeline_bit_identity() {
  constexpr std::size_t kTrials = 200;
  constexpr std::uint64_t kSeed = 63;
  services::ServiceSpec spec;
  spec.name = "probe";
  spec.replicas = {{40.7, -74.0}, {1.35, 103.8}, {51.5, -0.1}};
  spec.write_quorum = 2;

  const sim::FailureSimulator scalar_sim(
      submarine(), config_with(sim::TrialEngine::kScalar, 1));
  sim::TrialPipeline scalar_pipeline(scalar_sim, s1_model());
  sim::ConnectivityObserver scalar_conn;
  services::AvailabilityObserver scalar_avail(submarine(), spec);
  scalar_pipeline.add_observer(scalar_conn);
  scalar_pipeline.add_observer(scalar_avail);
  scalar_pipeline.run(kTrials, kSeed, 1);

  const sim::FailureSimulator batched_sim(
      submarine(), config_with(sim::TrialEngine::kAuto, 1));
  sim::TrialPipeline pipeline(batched_sim, s1_model());
  sim::ConnectivityObserver conn;
  services::AvailabilityObserver avail(submarine(), spec);
  pipeline.add_observer(conn);
  pipeline.add_observer(avail);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    pipeline.run(kTrials, kSeed, threads);
    check_stats_identical(conn.result().cables_failed_pct,
                          scalar_conn.result().cables_failed_pct,
                          "pipeline cables-failed diverged from scalar path");
    check_stats_identical(
        conn.result().nodes_unreachable_pct,
        scalar_conn.result().nodes_unreachable_pct,
        "pipeline nodes-unreachable diverged from scalar path");
    check_stats_identical(
        conn.result().largest_component_pct,
        scalar_conn.result().largest_component_pct,
        "pipeline largest-component diverged from scalar path");
    check_stats_identical(avail.result().read_availability,
                          scalar_avail.result().read_availability,
                          "read availability diverged from scalar path");
    check_stats_identical(avail.result().write_availability,
                          scalar_avail.result().write_availability,
                          "write availability diverged from scalar path");
  }
}

// Gate 4: once the TrialBatch and scratch are warm, the batch loop
// (sample + cables + nodes + components) never allocates.
void check_zero_steady_state_allocations() {
  const sim::FailureSimulator simulator(
      submarine(), config_with(sim::TrialEngine::kAuto, 1));
  const auto table = simulator.death_probability_table(s1_model());
  const sim::TrialBatchKernel kernel(simulator, table);
  const util::Rng base(55);
  sim::TrialBatch batch;
  sim::BatchConnectivityScratch scratch;
  std::uint32_t cables[sim::TrialBatchKernel::kLanes];
  std::uint32_t nodes[sim::TrialBatchKernel::kLanes];
  std::uint32_t largest[sim::TrialBatchKernel::kLanes];
  constexpr std::size_t kBatches = 4;
  auto loop = [&] {
    for (std::size_t b = 0; b < kBatches; ++b) {
      kernel.sample(base, b * sim::TrialBatchKernel::kLanes,
                    sim::TrialBatchKernel::kLanes, batch);
      kernel.count_cables_failed(batch, cables);
      kernel.count_unreachable_nodes(batch, nodes);
      kernel.largest_components(batch, scratch, largest);
    }
  };
  loop();  // warm every buffer over the same sequence
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  loop();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  if (after != before) {
    std::fprintf(stderr,
                 "perf_batch equivalence check FAILED: steady-state batch "
                 "loop allocated %zu times over %zu batches\n",
                 after - before, kBatches);
    std::exit(1);
  }
}

// Gate 5: paper §4.3.1 checkpoint through the batched engine: uniform
// p = 0.01 at the default 150 km repeater spacing loses ~15.8% of
// submarine cables and ~11.0% of nodes.
void check_figure_checkpoints() {
  const gic::UniformFailureModel model(0.01);
  const sim::FailureSimulator simulator(
      submarine(), config_with(sim::TrialEngine::kAuto, 1));
  const sim::AggregateResult agg = simulator.run_trials(model, 512, 2021);
  std::printf(
      "perf_batch: p=0.01 checkpoint: %.1f%% cables, %.1f%% nodes "
      "(paper: 15.8%% / 11.0%%)\n",
      agg.cables_failed_pct.mean(), agg.nodes_unreachable_pct.mean());
  if (std::abs(agg.cables_failed_pct.mean() - 15.8) > 2.0 ||
      std::abs(agg.nodes_unreachable_pct.mean() - 11.0) > 2.5) {
    fail("figure checkpoint drifted from the paper's §4.3.1 values");
  }
}

}  // namespace

int main() {
  check_sampler_bit_identity();
  check_run_trials_bit_identity();
  check_pipeline_bit_identity();
  check_zero_steady_state_allocations();
  check_figure_checkpoints();
  std::printf("perf_batch: all equivalence checks passed\n");

  // --- timing: the acceptance comparison ------------------------------------
  // Same network, model, seed, and trial budget; single-threaded so the
  // comparison is engine layout only (trial-major Bitset loop vs
  // cable-major 64-lane words). The scalar engine is the PR 5 baseline
  // run_trials path, forced via TrialEngine::kScalar.
  constexpr std::size_t kTrials = 512;
  constexpr std::uint64_t kSeed = 1859;
  const sim::FailureSimulator scalar_sim(
      submarine(), config_with(sim::TrialEngine::kScalar, 1));
  const sim::FailureSimulator batched_sim(
      submarine(), config_with(sim::TrialEngine::kAuto, 1));

  const double scalar_ms = benchutil::time_best_ms([&] {
    const sim::AggregateResult agg =
        scalar_sim.run_trials(s1_model(), kTrials, kSeed);
    if (agg.trials != kTrials) std::exit(1);
  });
  const double batched_ms = benchutil::time_best_ms([&] {
    const sim::AggregateResult agg =
        batched_sim.run_trials(s1_model(), kTrials, kSeed);
    if (agg.trials != kTrials) std::exit(1);
  });

  const double speedup = scalar_ms / batched_ms;
  const double cables = static_cast<double>(submarine().cable_count());
  std::printf("perf_batch: run_trials, %zu trials, %.0f-cable network, "
              "1 thread\n",
              kTrials, cables);
  std::printf("  scalar engine (trial-major):  %10.3f ms  (%8.3f us/trial)\n",
              scalar_ms, 1000.0 * scalar_ms / static_cast<double>(kTrials));
  std::printf("  batched engine (cable-major): %10.3f ms  (%8.3f us/trial)\n",
              batched_ms, 1000.0 * batched_ms / static_cast<double>(kTrials));
  std::printf("  speedup (scalar/batched):     %10.2fx\n", speedup);

  benchutil::write_bench_json(
      "batch", {{"trials", static_cast<double>(kTrials), "count"},
                {"scalar_run_trials_ms", scalar_ms, "ms"},
                {"batched_run_trials_ms", batched_ms, "ms"},
                {"scalar_us_per_trial",
                 1000.0 * scalar_ms / static_cast<double>(kTrials), "us"},
                {"batched_us_per_trial",
                 1000.0 * batched_ms / static_cast<double>(kTrials), "us"},
                {"speedup", speedup, "x"}});

  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "perf_batch FAILED: speedup %.2fx below the 5x acceptance "
                 "threshold\n",
                 speedup);
    return 1;
  }
  return 0;
}
