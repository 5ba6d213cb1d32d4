#include "analysis/connectivity.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace solarnet::analysis {

std::vector<sim::SweepPointAggregate> uniform_failure_sweep(
    const sim::FailureSimulator& simulator, std::span<const double> probs,
    std::size_t trials, std::uint64_t seed) {
  if (simulator.config().rule != sim::CableDeathRule::kAnyRepeaterFails) {
    throw std::invalid_argument(
        "uniform_failure_sweep: batched sweeps require "
        "CableDeathRule::kAnyRepeaterFails");
  }
  // The engine wants an ascending grid; accept any input order (and
  // duplicates) by sweeping a sorted copy and mapping results back.
  std::vector<std::size_t> order(probs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return probs[a] < probs[b];
                   });
  std::vector<double> sorted;
  sorted.reserve(probs.size());
  for (const std::size_t i : order) sorted.push_back(probs[i]);

  std::vector<sim::SweepPointAggregate> out(probs.size());
  if (probs.empty()) return out;
  const sim::SweepEngine engine = sim::SweepEngine::uniform(simulator, sorted);
  sim::SweepResult result = engine.run(trials, seed);
  for (std::size_t g = 0; g < order.size(); ++g) {
    out[order[g]] = std::move(result.points[g]);
  }
  return out;
}

std::vector<double> default_probability_grid() {
  return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};
}

BandSweepResult band_failure_run(const topo::InfrastructureNetwork& net,
                                 const gic::RepeaterFailureModel& model,
                                 double spacing_km, std::size_t trials,
                                 std::uint64_t seed, std::size_t threads) {
  sim::TrialConfig config;
  config.repeater_spacing_km = spacing_km;
  config.threads = threads;
  const sim::FailureSimulator simulator(net, config);
  // A single-point grid is trivially monotone; the engine still buys the
  // one-uniform-per-cable trial loop and chunked deterministic reduction.
  std::vector<sim::DeathProbabilityTable> grid;
  grid.push_back(simulator.death_probability_table(model));
  const sim::SweepEngine engine(simulator, std::move(grid));
  const sim::SweepResult result = engine.run(trials, seed);
  const sim::SweepPointAggregate& point = result.points.front();
  return {model.name(),
          spacing_km,
          point.cables_failed_pct.mean(),
          point.cables_failed_pct.sample_stddev(),
          point.nodes_unreachable_pct.mean(),
          point.nodes_unreachable_pct.sample_stddev()};
}

}  // namespace solarnet::analysis
