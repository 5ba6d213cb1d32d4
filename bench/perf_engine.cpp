// Engine micro-benchmarks (google-benchmark): dataset generation, repeater
// layout, Monte-Carlo trial throughput, component finding, and field
// integration. These guard the performance envelope that makes the
// figure-scale sweeps cheap.
#include <benchmark/benchmark.h>

#include "analysis/country.h"
#include "bench_util.h"
#include "datasets/land.h"
#include "datasets/submarine.h"
#include "gic/induction.h"
#include "graph/components.h"
#include "sim/monte_carlo.h"

namespace {

using namespace solarnet;

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}

const sim::FailureSimulator& submarine_sim() {
  static const sim::FailureSimulator s(submarine(), {});
  return s;
}

void BM_GenerateSubmarineNetwork(benchmark::State& state) {
  for (auto _ : state) {
    datasets::SubmarineConfig cfg;
    cfg.total_cables = static_cast<std::size_t>(state.range(0));
    cfg.target_landing_points = cfg.total_cables * 5 / 2;
    cfg.cables_without_length = 0;
    benchmark::DoNotOptimize(datasets::make_submarine_network(cfg));
  }
}
BENCHMARK(BM_GenerateSubmarineNetwork)->Arg(100)->Arg(470);

void BM_SimulatorConstruction(benchmark::State& state) {
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::FailureSimulator(submarine(), cfg));
  }
}
BENCHMARK(BM_SimulatorConstruction)->Arg(50)->Arg(150);

void BM_MonteCarloTrial(benchmark::State& state) {
  const gic::UniformFailureModel model(0.01);
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(submarine_sim().run_trial(model, rng));
  }
}
BENCHMARK(BM_MonteCarloTrial);

void BM_MonteCarloTrialBandModel(benchmark::State& state) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(submarine_sim().run_trial(model, rng));
  }
}
BENCHMARK(BM_MonteCarloTrialBandModel);

// --- run_trials throughput --------------------------------------------------
// The acceptance bench for the cached-probability + parallel engine: 1000
// any-failure trials, swept over thread counts (1 = serial path, 0 = auto /
// hardware concurrency). Every parallel run is first checked bit-identical
// to the serial aggregate — the determinism guarantee the engine documents.
constexpr std::size_t kPerfTrials = 1000;
constexpr std::uint64_t kPerfSeed = 7;

const sim::AggregateResult& serial_reference() {
  static const sim::AggregateResult ref = [] {
    sim::TrialConfig cfg;
    cfg.threads = 1;
    const sim::FailureSimulator s(submarine(), cfg);
    const gic::UniformFailureModel model(0.01);
    return s.run_trials(model, kPerfTrials, kPerfSeed);
  }();
  return ref;
}

void BM_RunTrials(benchmark::State& state) {
  sim::TrialConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  const sim::FailureSimulator s(submarine(), cfg);
  const gic::UniformFailureModel model(0.01);

  const sim::AggregateResult& ref = serial_reference();
  const sim::AggregateResult check = s.run_trials(model, kPerfTrials, kPerfSeed);
  if (check.cables_failed_pct.mean() != ref.cables_failed_pct.mean() ||
      check.cables_failed_pct.sample_stddev() !=
          ref.cables_failed_pct.sample_stddev() ||
      check.nodes_unreachable_pct.mean() != ref.nodes_unreachable_pct.mean() ||
      check.nodes_unreachable_pct.sample_stddev() !=
          ref.nodes_unreachable_pct.sample_stddev()) {
    state.SkipWithError("run_trials aggregate diverged from the serial path");
    return;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(s.run_trials(model, kPerfTrials, kPerfSeed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPerfTrials));
}
BENCHMARK(BM_RunTrials)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RunTrialsBandModel(benchmark::State& state) {
  sim::TrialConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  const sim::FailureSimulator s(submarine(), cfg);
  const auto model = gic::LatitudeBandFailureModel::s1();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.run_trials(model, kPerfTrials, kPerfSeed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPerfTrials));
}
BENCHMARK(BM_RunTrialsBandModel)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ConnectedComponents(benchmark::State& state) {
  const auto& net = submarine();
  const auto mask = graph::AliveMask::all_alive(net.graph());
  graph::ComponentScratch scratch;
  graph::ComponentResult components;
  for (auto _ : state) {
    graph::connected_components(net.csr(), mask, scratch, components);
    benchmark::DoNotOptimize(components.component.data());
  }
}
BENCHMARK(BM_ConnectedComponents);

void BM_CableInduction(benchmark::State& state) {
  const gic::GeoelectricFieldModel field(gic::carrington_1859());
  // The longest cable dominates; benchmark the whole network integral.
  for (auto _ : state) {
    benchmark::DoNotOptimize(gic::compute_network_induction(submarine(), field));
  }
}
BENCHMARK(BM_CableInduction);

void BM_CountryConnectivity(benchmark::State& state) {
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::country_connectivity(
        submarine(), submarine_sim(), s1, "US"));
  }
}
BENCHMARK(BM_CountryConnectivity);

void BM_GenerateItuNetwork(benchmark::State& state) {
  for (auto _ : state) {
    datasets::ItuConfig cfg;
    cfg.total_links = static_cast<std::size_t>(state.range(0));
    cfg.target_nodes = cfg.total_links;
    cfg.short_links = cfg.total_links * 7 / 10;
    benchmark::DoNotOptimize(datasets::make_itu_network(cfg));
  }
}
BENCHMARK(BM_GenerateItuNetwork)->Arg(1000)->Arg(11737);

// Headline chrono timings for BENCH_engine.json: run_trials throughput at
// the perf trial budget, serial and auto-threaded, uniform and band model.
void emit_bench_json() {
  const gic::UniformFailureModel uniform_model(0.01);
  const auto band_model = gic::LatitudeBandFailureModel::s1();
  sim::TrialConfig serial_cfg;
  serial_cfg.threads = 1;
  const sim::FailureSimulator serial_sim(submarine(), serial_cfg);
  const sim::FailureSimulator auto_sim(submarine(), {});

  const double serial_ms = benchutil::time_best_ms([&] {
    benchmark::DoNotOptimize(
        serial_sim.run_trials(uniform_model, kPerfTrials, kPerfSeed));
  });
  const double auto_ms = benchutil::time_best_ms([&] {
    benchmark::DoNotOptimize(
        auto_sim.run_trials(uniform_model, kPerfTrials, kPerfSeed));
  });
  const double band_ms = benchutil::time_best_ms([&] {
    benchmark::DoNotOptimize(
        auto_sim.run_trials(band_model, kPerfTrials, kPerfSeed));
  });
  benchutil::write_bench_json(
      "engine",
      {{"trials", static_cast<double>(kPerfTrials), "count"},
       {"run_trials_uniform_serial_ms", serial_ms, "ms"},
       {"run_trials_uniform_auto_ms", auto_ms, "ms"},
       {"run_trials_band_auto_ms", band_ms, "ms"}});
}

}  // namespace

int main(int argc, char** argv) {
  emit_bench_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
