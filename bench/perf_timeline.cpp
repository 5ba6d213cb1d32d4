// Timeline-engine benchmark: the acceptance harness for incremental storm
// playback (onset → peak → decay → repair).
//
// main() runs hard validation gates before any timing:
//   1. a non-any-failure rule and malformed playback axes are rejected up
//      front with invalid_argument,
//   2. playback's per-step percentages are bit-identical to a naive
//      per-step full recompute (independent CRN replay, fault draw and
//      fleet schedule, then one unreachable_nodes + connected_components
//      build per unified step) on the paper-scale 470-cable network,
//   3. observer aggregates are bit-identical across thread counts,
//   4. the steady-state playback loop performs ZERO heap allocations.
// Any failure exits non-zero, so CI's bench smoke job doubles as an
// equivalence gate. Then it times the naive per-step full recompute
// against playback on the 97-step default axis (73 storm steps at 1 h +
// 24 repair steps), asserts the >= 5x acceptance speedup, and emits
// BENCH_timeline.json.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "alloc_counter.h"
#include "bench_util.h"
#include "datasets/submarine.h"
#include "gic/failure_model.h"
#include "gic/timeline.h"
#include "graph/components.h"
#include "recovery/repair.h"
#include "reference/graph_kernels.h"
#include "sim/monte_carlo.h"
#include "sim/timeline_engine.h"
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

// Default playback: the paper's S1 latitude-band storm spread over the
// default 72 h phase profile at 1 h resolution (73 storm steps) plus the
// default 24-step repair horizon — 97 unified steps.
sim::TimelineEngine& default_engine() {
  static sim::TimelineEngine engine(
      submarine_sim(),
      submarine_sim().death_probability_table(
          gic::LatitudeBandFailureModel::s1()),
      sim::TimelineConfig::from_profile(gic::StormPhaseProfile{}, 1.0));
  return engine;
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "perf_timeline equivalence check FAILED: %s\n", what);
  std::exit(1);
}

// --- naive baseline ---------------------------------------------------------

// The historical shape of a storm playback: derive the trial's event times
// with the plain one-shot components, then pay one full connectivity
// build (the frozen Graph-tier kernel, reference/graph_kernels.h) per
// unified time step. Replays the engine's exact draw sequence
// (CRN uniforms ascending over repeater-bearing cables, fault counts from
// the split repair substream) so the comparison is bitwise, not
// statistical.
struct NaiveTrial {
  std::vector<std::uint32_t> fail_step;
  std::vector<double> restore_hour;
  std::vector<double> cables_failed_pct;
  std::vector<double> nodes_unreachable_pct;
  std::vector<double> largest_component_pct;
};

void naive_playback(const sim::TimelineEngine& engine, util::Rng& rng,
                    NaiveTrial& out) {
  const auto& net = engine.simulator().network();
  const sim::TimelineConfig& config = engine.config();
  const std::size_t cables = net.cable_count();
  const std::size_t storm_steps = engine.storm_step_count();
  const std::size_t repair_steps = engine.repair_step_count();
  const std::size_t total_steps = storm_steps + repair_steps;
  const std::size_t connected = net.connected_node_count();

  // CRN draw + proportional-hazard thresholding, cable by cable.
  out.fail_step.assign(cables, static_cast<std::uint32_t>(storm_steps));
  for (topo::CableId c = 0; c < cables; ++c) {
    if (engine.simulator().cable_repeater_count(c) == 0) continue;
    const double u = rng.uniform();
    const double p = engine.table().probability[c];
    if (!(u < p)) continue;
    const double threshold = std::log1p(-u) / std::log1p(-p);
    std::uint32_t dead_steps = 0;
    for (std::size_t g = 0; g < storm_steps; ++g) {
      dead_steps += config.dose_share[g] > threshold ? 1u : 0u;
    }
    out.fail_step[c] = static_cast<std::uint32_t>(storm_steps) - dead_steps;
  }

  // Fault counts and fleet schedule through the one-shot-parity forms.
  std::vector<std::uint8_t> dead_end(cables);
  for (std::size_t c = 0; c < cables; ++c) {
    dead_end[c] = out.fail_step[c] < storm_steps ? 1 : 0;
  }
  util::Rng repair_rng = rng.split(sim::TimelineEngine::kRepairStream);
  const recovery::FaultSampler sampler(engine.simulator(), engine.table());
  std::vector<std::uint32_t> faults(cables);
  sampler.sample(dead_end, repair_rng, faults);
  const recovery::RepairScheduler scheduler(net, config.fleet);
  recovery::RepairScheduler::Scratch repair_scratch;
  std::vector<double> restore_day(cables);
  scheduler.schedule(dead_end, faults, repair_scratch, restore_day);
  const double storm_end = engine.storm_end_hour();
  out.restore_hour.assign(cables, 0.0);
  for (std::size_t c = 0; c < cables; ++c) {
    if (dead_end[c]) out.restore_hour[c] = storm_end + restore_day[c] * 24.0;
  }

  // One full connectivity build per unified step, identical percentage
  // arithmetic to TimelineEngine::playback's record lambda.
  out.cables_failed_pct.resize(total_steps);
  out.nodes_unreachable_pct.resize(total_steps);
  out.largest_component_pct.resize(total_steps);
  std::vector<bool> dead(cables);
  for (std::size_t i = 0; i < total_steps; ++i) {
    std::size_t dead_count = 0;
    for (std::size_t c = 0; c < cables; ++c) {
      const bool d = i < storm_steps
                         ? out.fail_step[c] <= i
                         : dead_end[c] != 0 &&
                               engine.step_hour(i) < out.restore_hour[c];
      dead[c] = d;
      dead_count += d ? 1 : 0;
    }
    out.cables_failed_pct[i] =
        cables > 0 ? 100.0 * static_cast<double>(dead_count) /
                         static_cast<double>(cables)
                   : 0.0;
    const std::size_t unreachable = net.unreachable_nodes(dead).size();
    out.nodes_unreachable_pct[i] =
        connected > 0 ? 100.0 * static_cast<double>(unreachable) /
                            static_cast<double>(connected)
                      : 0.0;
    const auto components =
        reference::connected_components(net.graph(),
                                        net.mask_for_failures(dead));
    const std::size_t largest =
        std::max<std::size_t>(components.largest_component_size(),
                              net.node_count() > 0 ? 1 : 0);
    out.largest_component_pct[i] =
        connected > 0 ? 100.0 * static_cast<double>(largest) /
                            static_cast<double>(connected)
                      : 0.0;
  }
}

// --- validation gates -------------------------------------------------------

void check_validation() {
  const auto table = submarine_sim().death_probability_table(
      gic::UniformFailureModel(0.3));
  sim::TrialConfig cfg;
  cfg.rule = sim::CableDeathRule::kFractionFails;
  const sim::FailureSimulator fraction_sim(submarine(), cfg);
  bool threw = false;
  try {
    sim::TimelineEngine engine(
        fraction_sim, fraction_sim.death_probability_table(
                          gic::UniformFailureModel(0.3)),
        sim::TimelineConfig::from_profile(gic::StormPhaseProfile{}, 6.0));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  if (!threw) fail("kFractionFails rule was not rejected by the engine");

  threw = false;
  try {
    sim::TimelineEngine engine(
        submarine_sim(), table,
        sim::TimelineConfig::from_dose_schedule({0.0, 6.0}, {0.0, 0.5}));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  if (!threw) fail("dose_share not ending at 1.0 was not rejected");

  threw = false;
  try {
    sim::TimelineConfig config =
        sim::TimelineConfig::from_profile(gic::StormPhaseProfile{}, 6.0);
    config.repair_steps = 0;
    sim::TimelineEngine engine(submarine_sim(), table, std::move(config));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  if (!threw) fail("repair_steps == 0 was not rejected");
}

void check_playback_against_naive() {
  const sim::TimelineEngine& engine = default_engine();
  const std::size_t cables = submarine().cable_count();
  sim::TimelineScratch scratch;
  NaiveTrial naive;
  const util::Rng base(1859);
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    util::Rng rng_a = base.split(trial);
    engine.playback(rng_a, scratch);
    util::Rng rng_b = base.split(trial);
    naive_playback(engine, rng_b, naive);
    for (std::size_t c = 0; c < cables; ++c) {
      if (scratch.fail_step[c] != naive.fail_step[c]) {
        fail("fail_step diverges from the naive CRN replay");
      }
      if (scratch.restore_hour[c] != naive.restore_hour[c]) {
        fail("restore_hour diverges from the one-shot schedule");
      }
    }
    for (std::size_t i = 0; i < engine.step_count(); ++i) {
      if (scratch.cables_failed_pct[i] != naive.cables_failed_pct[i] ||
          scratch.nodes_unreachable_pct[i] !=
              naive.nodes_unreachable_pct[i] ||
          scratch.largest_component_pct[i] !=
              naive.largest_component_pct[i]) {
        std::fprintf(stderr,
                     "perf_timeline equivalence check FAILED: playback "
                     "diverges from full recompute at trial %llu step %zu\n",
                     static_cast<unsigned long long>(trial), i);
        std::exit(1);
      }
    }
    // The end of the storm must land exactly on the end-state CRN draw.
    util::Rng rng_c = base.split(trial);
    const std::size_t last = engine.storm_step_count() - 1;
    for (topo::CableId c = 0; c < cables; ++c) {
      if (engine.simulator().cable_repeater_count(c) == 0) continue;
      const bool dead_at_end = scratch.fail_step[c] <= last;
      if (dead_at_end != (rng_c.uniform() < engine.table().probability[c])) {
        fail("storm end state diverges from the end-state CRN draw");
      }
    }
  }
}

void check_thread_bit_identity() {
  sim::TimelineEngine& engine = default_engine();
  constexpr std::size_t kTrials = 101;
  sim::TimelineConnectivityObserver observer(50.0);
  engine.add_observer(observer);
  engine.run(kTrials, 9, 1);
  const sim::TimelineConnectivityResult serial = observer.result();
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{0}}) {
    engine.run(kTrials, 9, threads);
    const sim::TimelineConnectivityResult& p = observer.result();
    bool equal = serial.trials == p.trials &&
                 serial.partitioned_trials == p.partitioned_trials &&
                 serial.time_to_partition_hours.count() ==
                     p.time_to_partition_hours.count() &&
                 serial.time_to_partition_hours.mean() ==
                     p.time_to_partition_hours.mean() &&
                 serial.peak_nodes_unreachable_pct.mean() ==
                     p.peak_nodes_unreachable_pct.mean() &&
                 serial.peak_nodes_unreachable_pct.sample_stddev() ==
                     p.peak_nodes_unreachable_pct.sample_stddev();
    for (std::size_t i = 0; equal && i < serial.steps.size(); ++i) {
      equal = serial.steps[i].hour == p.steps[i].hour &&
              serial.steps[i].cables_failed_pct.mean() ==
                  p.steps[i].cables_failed_pct.mean() &&
              serial.steps[i].nodes_unreachable_pct.sample_stddev() ==
                  p.steps[i].nodes_unreachable_pct.sample_stddev() &&
              serial.steps[i].largest_component_pct.mean() ==
                  p.steps[i].largest_component_pct.mean();
    }
    if (!equal) fail("observer aggregates diverged across thread counts");
  }
}

// Once the scratch is warm, playback never allocates. The counted pass
// replays the warm-up's exact draw sequence.
void check_zero_steady_state_allocations() {
  const sim::TimelineEngine& engine = default_engine();
  sim::TimelineScratch scratch;
  const util::Rng base(55);
  constexpr std::size_t kSteadyTrials = 16;
  auto run = [&] {
    for (std::uint64_t t = 0; t < kSteadyTrials; ++t) {
      util::Rng rng = base.split(t);
      engine.playback(rng, scratch);
    }
  };
  run();  // warm every buffer over the same sequence
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  if (after != before) {
    std::fprintf(stderr,
                 "perf_timeline equivalence check FAILED: steady-state "
                 "playback loop allocated %zu times over %zu trials\n",
                 after - before, kSteadyTrials);
    std::exit(1);
  }
}

}  // namespace

int main() {
  check_validation();
  check_playback_against_naive();
  check_thread_bit_identity();
  check_zero_steady_state_allocations();
  std::printf("perf_timeline: all equivalence checks passed\n");

  // --- timing: the acceptance comparison ------------------------------------
  // Old path: event derivation through the one-shot components plus one
  // full connectivity build per unified step. New path: the same events
  // plus two incremental resurrection walks. Both single-threaded on the
  // 470-cable network over the 97-step default axis.
  const sim::TimelineEngine& engine = default_engine();
  constexpr std::size_t kTrials = 4;
  constexpr std::uint64_t kSeed = 1859;

  NaiveTrial naive;
  const double old_ms = benchutil::time_best_ms([&] {
    const util::Rng base(kSeed);
    for (std::uint64_t t = 0; t < kTrials; ++t) {
      util::Rng rng = base.split(t);
      naive_playback(engine, rng, naive);
      if (naive.cables_failed_pct.size() != engine.step_count()) std::exit(1);
    }
  }, 5);

  sim::TimelineScratch scratch;
  const double new_ms = benchutil::time_best_ms([&] {
    const util::Rng base(kSeed);
    for (std::uint64_t t = 0; t < kTrials; ++t) {
      util::Rng rng = base.split(t);
      engine.playback(rng, scratch);
      if (scratch.cables_failed_pct.size() != engine.step_count()) std::exit(1);
    }
  }, 5);

  const double speedup = old_ms / new_ms;
  std::printf("perf_timeline: %zu-step playback (%zu storm + %zu repair), "
              "%zu trials, 470-cable network\n",
              engine.step_count(), engine.storm_step_count(),
              engine.repair_step_count(), kTrials);
  std::printf("  old (full recompute per step):  %8.3f ms\n", old_ms);
  std::printf("  new (incremental playback):     %8.3f ms\n", new_ms);
  std::printf("  speedup (old/new):              %8.2fx\n", speedup);

  benchutil::write_bench_json(
      "timeline",
      {{"steps", static_cast<double>(engine.step_count()), "count"},
       {"trials", static_cast<double>(kTrials), "count"},
       {"naive_playback_ms", old_ms, "ms"},
       {"incremental_playback_ms", new_ms, "ms"},
       {"speedup", speedup, "x"}});

  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "perf_timeline FAILED: speedup %.2fx below the 5x "
                 "acceptance threshold\n", speedup);
    return 1;
  }
  return 0;
}
