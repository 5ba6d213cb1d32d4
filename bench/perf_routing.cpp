// Batched-routing benchmark: the old-vs-new acceptance harness for the
// batched post-failure traffic engine (PR 9).
//
// main() runs hard validation gates before any timing:
//   1. the batched assign (hot scratch path, the one-shot wrapper, and the
//      component-short-circuit path) is bit-identical to an inline replica
//      of the historical per-source std::map + Dijkstra assign (over the
//      frozen reference::dijkstra) on the seed submarine network —
//      baseline plus 32 s1-model draws,
//   2. assign_capacity_aware (lazy per-source trees + fit-mask fallback)
//      is bit-identical to an inline replica of the historical per-demand
//      fit-mask Dijkstra over 8 s1-model draws,
//   3. routing::TrafficObserver aggregates are bit-identical across
//      thread counts {1, 2, 4},
//   4. the steady-state trial loop (draw + mask + components + full-matrix
//      routing) performs ZERO heap allocations, and so does a warm hot
//      assign over the million-pair matrix,
//   5. the engine routes >= 1,000,000 demand pairs per trial.
// Any failure exits non-zero, so CI's bench smoke job doubles as an
// equivalence gate. Then it times one warm full-matrix assign of the
// million-pair sampled demand matrix against the per-demand-Dijkstra
// baseline (timed on a subsample, scaled to pairs/sec), asserts the
// >= 10x acceptance speedup, and emits BENCH_routing.json. Set
// SOLARNET_BENCH_SKIP_PERF=1 to run the equivalence gates but skip the
// timing comparison (sanitizer builds).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "bench_util.h"
#include "datasets/submarine.h"
#include "gic/failure_model.h"
#include "graph/components.h"
#include "graph/traversal.h"
#include "reference/graph_kernels.h"
#include "routing/assignment.h"
#include "routing/demand.h"
#include "routing/traffic_observer.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "util/bitset.h"
#include "util/rng.h"

// --- global allocation counter ----------------------------------------------
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace solarnet;

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}

const sim::FailureSimulator& submarine_sim() {
  static const sim::FailureSimulator s(submarine(), [] {
    sim::TrialConfig cfg;
    cfg.threads = 1;
    return cfg;
  }());
  return s;
}

const gic::LatitudeBandFailureModel& s1_model() {
  static const auto model = gic::LatitudeBandFailureModel::s1();
  return model;
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "perf_routing equivalence check FAILED: %s\n", what);
  std::exit(1);
}

void check_results_identical(const routing::AssignmentResult& a,
                             const routing::AssignmentResult& b,
                             const char* what) {
  if (a.loads.size() != b.loads.size() ||
      a.delivered_gbps != b.delivered_gbps ||
      a.undeliverable_gbps != b.undeliverable_gbps ||
      a.max_utilization != b.max_utilization ||
      a.overloaded_cables != b.overloaded_cables ||
      a.mean_path_km != b.mean_path_km) {
    fail(what);
  }
  for (std::size_t c = 0; c < a.loads.size(); ++c) {
    if (a.loads[c].cable != b.loads[c].cable ||
        a.loads[c].load_gbps != b.loads[c].load_gbps ||
        a.loads[c].capacity_gbps != b.loads[c].capacity_gbps) {
      fail(what);
    }
  }
}

void check_stats_identical(const util::RunningStats& a,
                           const util::RunningStats& b, const char* what) {
  if (a.count() != b.count() || a.mean() != b.mean() ||
      a.sample_stddev() != b.sample_stddev() || a.min() != b.min() ||
      a.max() != b.max()) {
    fail(what);
  }
}

// A sequence of s1-model failure draws on the seed network, as both the
// pipeline's Bitset form and the legacy vector<bool> form.
struct Draw {
  util::Bitset dead;
  std::vector<bool> dead_bits;
};

std::vector<Draw> make_draws(std::size_t count, std::uint64_t seed) {
  const auto table = submarine_sim().death_probability_table(s1_model());
  const util::Rng base(seed);
  std::vector<Draw> draws(count);
  for (std::size_t t = 0; t < count; ++t) {
    util::Rng rng = base.split(t);
    submarine_sim().sample_cable_failures(table, rng, draws[t].dead);
    draws[t].dead_bits.assign(submarine().cable_count(), false);
    for (std::size_t c = 0; c < draws[t].dead_bits.size(); ++c) {
      draws[t].dead_bits[c] = draws[t].dead.test(c);
    }
  }
  return draws;
}

// --- legacy replicas --------------------------------------------------------
// Verbatim ports of the pre-PR TrafficEngine::assign /
// assign_capacity_aware loops (per-source std::map + Graph-tier Dijkstra;
// per-demand fit-mask Dijkstra), kept here as the reference the batched
// engine must reproduce bit for bit. They run the frozen std::priority_queue
// Dijkstra (reference/graph_kernels.h), not graph::dijkstra, which is a
// one-shot form of the shortest_path_tree kernel under test.

routing::AssignmentResult legacy_assign(
    const topo::InfrastructureNetwork& net,
    const std::vector<routing::TrafficDemand>& demands,
    const std::vector<bool>& cable_dead) {
  const routing::CapacityModel capacity{};
  const graph::AliveMask mask = net.mask_for_failures(cable_dead);

  routing::AssignmentResult result;
  result.loads.resize(net.cable_count());
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    result.loads[c].cable = c;
    result.loads[c].capacity_gbps = 1000.0 * capacity.capacity_tbps(net.cable(c));
  }

  std::map<topo::NodeId, std::vector<std::size_t>> by_source;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    by_source[demands[i].src].push_back(i);
  }

  double weighted_km = 0.0;
  for (const auto& [src, demand_indices] : by_source) {
    const graph::ShortestPaths sp =
        reference::dijkstra(net.graph(), mask, src);
    for (std::size_t idx : demand_indices) {
      const routing::TrafficDemand& d = demands[idx];
      if (sp.distance[d.dst] == graph::kUnreachable) {
        result.undeliverable_gbps += d.gbps;
        continue;
      }
      result.delivered_gbps += d.gbps;
      weighted_km += d.gbps * sp.distance[d.dst];
      for (topo::NodeId v = d.dst; sp.parent_edge[v] != graph::kInvalidEdge;
           v = sp.parent[v]) {
        result.loads[net.cable_of_edge(sp.parent_edge[v])].load_gbps += d.gbps;
      }
    }
  }

  for (const routing::CableLoad& load : result.loads) {
    result.max_utilization =
        std::max(result.max_utilization, load.utilization());
    if (load.utilization() > 1.0) ++result.overloaded_cables;
  }
  result.mean_path_km =
      result.delivered_gbps > 0.0 ? weighted_km / result.delivered_gbps : 0.0;
  return result;
}

routing::AssignmentResult legacy_capacity_aware(
    const topo::InfrastructureNetwork& net,
    const std::vector<routing::TrafficDemand>& demands,
    const std::vector<bool>& cable_dead) {
  const routing::CapacityModel capacity{};
  const graph::AliveMask base_mask = net.mask_for_failures(cable_dead);

  routing::AssignmentResult result;
  result.loads.resize(net.cable_count());
  std::vector<double> residual(net.cable_count(), 0.0);
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    result.loads[c].cable = c;
    result.loads[c].capacity_gbps = 1000.0 * capacity.capacity_tbps(net.cable(c));
    residual[c] = result.loads[c].capacity_gbps;
  }

  std::vector<std::size_t> order(demands.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demands[a].gbps > demands[b].gbps;
                   });

  constexpr double kEps = 1e-9;
  double weighted_km = 0.0;
  graph::AliveMask mask = base_mask;
  for (std::size_t idx : order) {
    const routing::TrafficDemand& d = demands[idx];
    mask.edge_alive = base_mask.edge_alive;
    for (graph::EdgeId e = 0; e < net.graph().edge_count(); ++e) {
      if (!mask.edge_alive[e]) continue;
      if (residual[net.cable_of_edge(e)] + kEps < d.gbps) {
        mask.edge_alive.reset(e);
      }
    }
    const graph::ShortestPaths sp =
        reference::dijkstra(net.graph(), mask, d.src);
    if (sp.distance[d.dst] == graph::kUnreachable) {
      result.undeliverable_gbps += d.gbps;
      continue;
    }
    result.delivered_gbps += d.gbps;
    weighted_km += d.gbps * sp.distance[d.dst];
    for (topo::NodeId v = d.dst; sp.parent_edge[v] != graph::kInvalidEdge;
         v = sp.parent[v]) {
      const topo::CableId cable = net.cable_of_edge(sp.parent_edge[v]);
      result.loads[cable].load_gbps += d.gbps;
      residual[cable] -= d.gbps;
    }
  }

  for (const routing::CableLoad& load : result.loads) {
    result.max_utilization =
        std::max(result.max_utilization, load.utilization());
    if (load.utilization() > 1.0 + kEps) ++result.overloaded_cables;
  }
  result.mean_path_km =
      result.delivered_gbps > 0.0 ? weighted_km / result.delivered_gbps : 0.0;
  return result;
}

// --- validation gates -------------------------------------------------------

void check_batched_matches_legacy() {
  const std::vector<routing::TrafficDemand> demands =
      routing::gravity_demands(submarine());
  const routing::TrafficEngine engine(submarine(), demands);
  const std::vector<Draw> draws = make_draws(32, 4242);

  routing::TrafficScratch scratch;
  routing::AssignmentResult hot;
  graph::AliveMask mask;
  graph::ComponentScratch comp_scratch;
  graph::ComponentResult components;

  const auto check_draw = [&](const Draw& draw) {
    const routing::AssignmentResult reference =
        legacy_assign(submarine(), demands, draw.dead_bits);
    // One-shot wrapper (builds its own mask, no component fast path).
    check_results_identical(engine.assign(draw.dead_bits), reference,
                            "one-shot assign diverged from legacy replica");
    // Hot path with the pipeline's shared mask + component decomposition:
    // the component short-circuit must not change any statistic.
    submarine().mask_for_failures(draw.dead, mask);
    graph::connected_components(submarine().csr(), mask, comp_scratch,
                                components);
    engine.assign(draw.dead, &mask, &components, scratch, hot);
    check_results_identical(hot, reference,
                            "component-short-circuit assign diverged from "
                            "legacy replica");
  };

  Draw baseline;
  baseline.dead = util::Bitset(submarine().cable_count());
  baseline.dead_bits.assign(submarine().cable_count(), false);
  check_draw(baseline);
  check_results_identical(engine.assign_baseline(),
                          legacy_assign(submarine(), demands,
                                        baseline.dead_bits),
                          "assign_baseline diverged from legacy replica");
  for (const Draw& draw : draws) check_draw(draw);
}

void check_capacity_aware_matches_legacy() {
  // Stress capacity: shrink the matrix's headroom so the fit-mask fallback
  // actually fires (plain gravity demand rarely fills a cable).
  routing::DemandModelParams params;
  params.total_offered_tbps = 4000.0;
  const std::vector<routing::TrafficDemand> demands =
      routing::gravity_demands(submarine(), params);
  const routing::TrafficEngine engine(submarine(), demands);
  const std::vector<Draw> draws = make_draws(8, 99);

  check_results_identical(
      engine.assign_capacity_aware(
          std::vector<bool>(submarine().cable_count(), false)),
      legacy_capacity_aware(submarine(), demands,
                            std::vector<bool>(submarine().cable_count(),
                                              false)),
      "capacity-aware baseline diverged from legacy replica");
  for (const Draw& draw : draws) {
    check_results_identical(
        engine.assign_capacity_aware(draw.dead_bits),
        legacy_capacity_aware(submarine(), demands, draw.dead_bits),
        "capacity-aware assign diverged from legacy replica");
  }
}

void check_sweeps_identical(const routing::TrafficSweep& a,
                            const routing::TrafficSweep& b,
                            const char* what) {
  if (a.trials != b.trials || a.demand_pairs != b.demand_pairs ||
      a.offered_gbps != b.offered_gbps) {
    fail(what);
  }
  check_stats_identical(a.delivered_fraction, b.delivered_fraction, what);
  check_stats_identical(a.stranded_gbps, b.stranded_gbps, what);
  check_stats_identical(a.max_utilization, b.max_utilization, what);
  check_stats_identical(a.overloaded_cables, b.overloaded_cables, what);
  check_stats_identical(a.mean_path_km, b.mean_path_km, what);
}

void check_observer_thread_bit_identity() {
  constexpr std::size_t kTrials = 192;
  const routing::TrafficEngine engine(submarine(),
                                      routing::gravity_demands(submarine()));
  sim::TrialPipeline pipeline(submarine_sim(), s1_model());
  routing::TrafficObserver observer(engine);
  pipeline.add_observer(observer);

  pipeline.run(kTrials, 61, 1);
  const routing::TrafficSweep reference = observer.result();
  if (reference.trials != kTrials ||
      reference.demand_pairs != engine.demands().size()) {
    fail("traffic observer trial/pair counts wrong");
  }
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    pipeline.run(kTrials, 61, threads);
    check_sweeps_identical(observer.result(), reference,
                           "traffic sweep diverged across thread counts");
  }
}

// Once the observer's per-worker scratch and result buffers are warm, the
// per-trial loop (draw + mask + components + full-matrix routing) never
// allocates. The counted pass replays the warm-up's exact draw sequence.
void check_zero_steady_state_allocations() {
  constexpr std::size_t kSteadyTrials = 64;
  const routing::TrafficEngine engine(submarine(),
                                      routing::gravity_demands(submarine()));
  sim::TrialPipeline pipeline(submarine_sim(), s1_model());
  routing::TrafficObserver observer(engine);
  pipeline.add_observer(observer);

  const std::size_t chunks = sim::chunk_count(kSteadyTrials);
  observer.begin_run(pipeline, 1, chunks);
  sim::PipelineScratch scratch;
  const util::Rng base(71);
  auto loop = [&] {
    for (std::size_t t = 0; t < kSteadyTrials; ++t) {
      pipeline.run_trial(t, base, scratch, 0,
                         t / sim::kTrialChunk);
    }
  };
  loop();  // warm every buffer over the same sequence
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  loop();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  observer.end_run();
  if (after != before) {
    std::fprintf(stderr,
                 "perf_routing equivalence check FAILED: steady-state trial "
                 "loop allocated %zu times over %zu trials\n",
                 after - before, kSteadyTrials);
    std::exit(1);
  }
}

}  // namespace

int main() {
  check_batched_matches_legacy();
  check_capacity_aware_matches_legacy();
  check_observer_thread_bit_identity();
  check_zero_steady_state_allocations();
  std::printf("perf_routing: all equivalence checks passed\n");

  // --- the million-pair scale gate ------------------------------------------
  // The seed network has ~705k distinct node pairs, so the million-row
  // matrix comes from sampled_node_demands (degree-proportional endpoints,
  // entries may repeat a pair — each entry is routed individually).
  constexpr std::size_t kPairs = 1'000'000;
  const routing::TrafficEngine engine(
      submarine(),
      routing::sampled_node_demands(submarine(), kPairs, 400.0, 2026));
  if (engine.demands().size() < kPairs) {
    fail("sampled demand matrix smaller than one million pairs");
  }

  // One representative s1 draw, with the mask + components the pipeline
  // hands the observer each trial.
  const Draw draw = std::move(make_draws(1, 7)[0]);
  graph::AliveMask mask;
  submarine().mask_for_failures(draw.dead, mask);
  graph::ComponentScratch comp_scratch;
  graph::ComponentResult components;
  graph::connected_components(submarine().csr(), mask, comp_scratch,
                              components);

  routing::TrafficScratch scratch;
  routing::AssignmentResult result;
  engine.assign(draw.dead, &mask, &components, scratch, result);  // warm

  // Warm hot assign over the million-pair matrix allocates nothing.
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  engine.assign(draw.dead, &mask, &components, scratch, result);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  if (after != before) {
    std::fprintf(stderr,
                 "perf_routing FAILED: warm million-pair assign allocated "
                 "%zu times\n",
                 after - before);
    return 1;
  }
  std::printf(
      "perf_routing: %zu pairs, %zu sources, delivered %.1f%%, "
      "max util %.2f\n",
      engine.demands().size(), engine.source_count(),
      100.0 * result.delivered_fraction(), result.max_utilization);

  if (const char* v = std::getenv("SOLARNET_BENCH_SKIP_PERF");
      v != nullptr && v[0] == '1') {
    std::printf(
        "perf_routing: SOLARNET_BENCH_SKIP_PERF set, timing gates "
        "skipped\n");
    return 0;
  }

  // --- timing: the acceptance comparison ------------------------------------
  // New path: one warm full-matrix assign — what TrafficObserver adds to
  // each pipeline trial (the mask and components are already computed for
  // the other observers). Old path: one frozen Graph-tier Dijkstra per
  // demand, the way the per-demand capacity-aware loop searched before
  // PR 9 — timed on a subsample and scaled, because a million of them
  // would take minutes.
  const double trial_ms = benchutil::time_best_ms([&] {
    engine.assign(draw.dead, &mask, &components, scratch, result);
    if (result.delivered_gbps <= 0.0) std::exit(1);
  });

  constexpr std::size_t kBaselineSample = 500;
  const graph::AliveMask baseline_mask =
      submarine().mask_for_failures(draw.dead_bits);
  const double baseline_ms = benchutil::time_best_ms(
      [&] {
        double delivered = 0.0;
        for (std::size_t i = 0; i < kBaselineSample; ++i) {
          const routing::TrafficDemand& d = engine.demands()[i];
          const graph::ShortestPaths sp =
              reference::dijkstra(submarine().graph(), baseline_mask, d.src);
          if (sp.distance[d.dst] != graph::kUnreachable) delivered += d.gbps;
        }
        if (delivered < 0.0) std::exit(1);
      },
      2);

  const double pairs_per_sec =
      static_cast<double>(engine.demands().size()) / (trial_ms / 1000.0);
  const double baseline_pairs_per_sec =
      static_cast<double>(kBaselineSample) / (baseline_ms / 1000.0);
  const double speedup = pairs_per_sec / baseline_pairs_per_sec;

  std::printf("perf_routing: %zu-pair matrix, 470-cable network, 1 thread\n",
              engine.demands().size());
  std::printf("  batched assign (full matrix):     %10.3f ms/trial\n",
              trial_ms);
  std::printf("  batched throughput:               %10.0f pairs/s\n",
              pairs_per_sec);
  std::printf("  per-demand Dijkstra baseline:     %10.0f pairs/s\n",
              baseline_pairs_per_sec);
  std::printf("  speedup:                          %10.1fx\n", speedup);

  benchutil::write_bench_json(
      "routing",
      {{"demand_pairs", static_cast<double>(engine.demands().size()), "count"},
       {"sources", static_cast<double>(engine.source_count()), "count"},
       {"trial_ms", trial_ms, "ms"},
       {"pairs_per_sec", pairs_per_sec, "1/s"},
       {"baseline_pairs_per_sec", baseline_pairs_per_sec, "1/s"},
       {"speedup", speedup, "x"}});

  if (speedup < 10.0) {
    std::fprintf(stderr,
                 "perf_routing FAILED: speedup %.1fx below the 10x "
                 "acceptance threshold\n",
                 speedup);
    return 1;
  }
  return 0;
}
