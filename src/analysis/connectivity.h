// Failure-sweep analyses behind Figures 6, 7 and 8: cable/node failure
// percentages across repeater-failure probabilities, spacings, and the
// paper's non-uniform latitude-band states. Both entry points run on
// sim::SweepEngine — one common-random-number draw per cable prices the
// whole probability grid per trial (see sim/sweep.h for the coupling and
// determinism contract), so a G-point sweep costs ~one trial's connectivity
// work instead of G.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "gic/failure_model.h"
#include "sim/monte_carlo.h"
#include "sim/sweep.h"

namespace solarnet::analysis {

// Uniform-probability sweep (Figures 6 and 7): one point per probability,
// its axis the probability. Accepts probabilities in any order (results
// keep the input order) and throws std::invalid_argument up front when the
// simulator's rule is not kAnyRepeaterFails. Trial t shares one uniform per
// cable across all points, so per-trial curves are exactly monotone in p.
std::vector<sim::SweepPointAggregate> uniform_failure_sweep(
    const sim::FailureSimulator& simulator, std::span<const double> probs,
    std::size_t trials, std::uint64_t seed);

// The paper's probability grid: log-spaced 0.001 .. 1.
std::vector<double> default_probability_grid();

struct BandSweepResult {
  std::string model_name;
  double spacing_km = 0.0;
  double cables_failed_mean_pct = 0.0;
  double cables_failed_sd_pct = 0.0;
  double nodes_unreachable_mean_pct = 0.0;
  double nodes_unreachable_sd_pct = 0.0;
};

// Non-uniform (latitude-band) evaluation at one spacing (Figure 8 bars).
// `threads` follows sim::TrialConfig::threads (0 = hardware concurrency).
BandSweepResult band_failure_run(const topo::InfrastructureNetwork& net,
                                 const gic::RepeaterFailureModel& model,
                                 double spacing_km, std::size_t trials,
                                 std::uint64_t seed, std::size_t threads = 0);

}  // namespace solarnet::analysis
