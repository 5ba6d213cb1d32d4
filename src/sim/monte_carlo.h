// Monte-Carlo failure simulation (§4.3 of the paper).
//
// The experiment: place repeaters on every cable at a fixed spacing, let
// each repeater fail according to a RepeaterFailureModel, kill a cable when
// its repeaters fail (by default: any single failure kills the cable — "even
// a single repeater failure can leave all parallel fibers in the cable
// unusable"), then measure the share of failed cables and of nodes that
// lost all their cables. Repeat and aggregate.
//
// FailureSimulator precomputes the repeater layout (positions and the
// per-cable max-endpoint latitude) once per (network, spacing). Under the
// any-failure rule the per-cable death probabilities depend only on the
// (simulator, model) pair, so they fold into a DeathProbabilityTable once
// and every trial is O(cables); the kFractionFails extension must draw each
// repeater individually and stays O(repeaters) per trial.
//
// run_trials is one sim::TrialPipeline pass reduced to the two aggregate
// percentages; its determinism is the pipeline's (sim/chunked.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gic/failure_model.h"
#include "sim/outcome.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace solarnet::sim {

enum class CableDeathRule {
  kAnyRepeaterFails,  // the paper's rule
  kFractionFails,     // extension: dies when >= death_fraction of repeaters fail
};

// Which engine TrialPipeline::run (and so run_trials) uses for the trial
// loop. kAuto picks the bit-parallel TrialBatch kernel whenever the rule
// admits it (any-repeater-fails); the result is bit-identical to the scalar
// loop, so kScalar exists for benchmarks and A/B verification, not for
// correctness. kFractionFails always runs scalar regardless of this setting.
enum class TrialEngine {
  kAuto,
  kScalar,
};

struct TrialConfig {
  double repeater_spacing_km = 150.0;
  CableDeathRule rule = CableDeathRule::kAnyRepeaterFails;
  // Only used (and only validated) by kFractionFails.
  double death_fraction = 0.5;
  // Worker threads for the trial engines: 0 = hardware concurrency,
  // 1 = serial. Aggregates are bit-identical for every value.
  std::size_t threads = 0;
  TrialEngine engine = TrialEngine::kAuto;
};

// Validates a TrialConfig up front, throwing std::invalid_argument with a
// field-by-field message on the first problem found:
//   - repeater_spacing_km must be finite and strictly positive (NaN and
//     Inf are rejected, not just non-positive values),
//   - death_fraction must be in (0, 1] and finite when the rule is
//     kFractionFails,
//   - threads must be <= kMaxReasonableThreads (a fat-finger guard: a
//     parsed-garbage thread count would otherwise try to spawn billions of
//     workers).
// FailureSimulator's constructor calls this on every config it accepts.
inline constexpr std::size_t kMaxReasonableThreads = 65536;
void validate_trial_config(const TrialConfig& config);

// Per-cable death probabilities under the any-failure rule, fixed for a
// given (simulator, model) pair. Building it costs one O(repeaters) pass;
// sampling against it is O(cables) per draw.
struct DeathProbabilityTable {
  std::vector<double> probability;  // indexed by CableId
};

class FailureSimulator {
 public:
  // Builds the repeater layout for `net` at the config's spacing. The
  // network must outlive the simulator.
  FailureSimulator(const topo::InfrastructureNetwork& net, TrialConfig config);

  const topo::InfrastructureNetwork& network() const noexcept { return net_; }
  const TrialConfig& config() const noexcept { return config_; }

  std::size_t total_repeaters() const noexcept { return total_repeaters_; }
  std::size_t repeaterless_cables() const noexcept {
    return repeaterless_cables_;
  }
  // Repeaters laid on one cable at the config's spacing. Cables with zero
  // repeaters can never die of GIC; the sweep engine uses this to skip
  // their draws exactly like sample_cable_failures does.
  std::size_t cable_repeater_count(topo::CableId cable) const {
    if (cable + 1 >= cable_offset_.size()) {
      throw std::out_of_range("cable_repeater_count: cable id");
    }
    return cable_offset_[cable + 1] - cable_offset_[cable];
  }
  double average_repeaters_per_cable() const noexcept;

  // Exact per-cable death probability under the any-failure rule:
  // 1 - prod(1 - p_i) over the cable's repeaters.
  double cable_death_probability(topo::CableId cable,
                                 const gic::RepeaterFailureModel& model) const;

  // All cables' death probabilities in one pass; the trial engines build
  // this once and reuse it across trials.
  DeathProbabilityTable death_probability_table(
      const gic::RepeaterFailureModel& model) const;

  // Samples which cables die in one event draw: resizes and fills `dead`,
  // reusing its storage. Repeater-bearing cables draw in ascending order
  // (one bernoulli per cable under kAnyRepeaterFails, one per repeater
  // under kFractionFails); repeaterless cables never die and draw nothing.
  void sample_cable_failures(const gic::RepeaterFailureModel& model,
                             util::Rng& rng, util::Bitset& dead) const;
  // One-shot form of the same draw, converted through
  // util::Bitset::to_bools.
  std::vector<bool> sample_cable_failures(
      const gic::RepeaterFailureModel& model, util::Rng& rng) const;
  // Table-accelerated draw (any-failure rule only — throws otherwise):
  // O(cables) per draw against a prebuilt DeathProbabilityTable. This is
  // the entry the sweep loops use.
  void sample_cable_failures(const DeathProbabilityTable& table,
                             util::Rng& rng, util::Bitset& dead) const;

  TrialResult run_trial(const gic::RepeaterFailureModel& model,
                        util::Rng& rng) const;

  // `trials` independent draws; trial t uses child stream t of `seed`.
  // One TrialPipeline pass on config().threads workers with no component
  // build; the aggregate does not depend on the thread count. Use the
  // pipeline directly when a run needs more than these two percentages.
  AggregateResult run_trials(const gic::RepeaterFailureModel& model,
                             std::size_t trials, std::uint64_t seed) const;

 private:
  const topo::InfrastructureNetwork& net_;
  TrialConfig config_;
  // Flattened repeater contexts: per cable, [offset, offset+count).
  std::vector<gic::RepeaterContext> repeaters_;
  std::vector<std::size_t> cable_offset_;  // size cables+1
  std::size_t total_repeaters_ = 0;
  std::size_t repeaterless_cables_ = 0;
  std::size_t connected_nodes_ = 0;
};

}  // namespace solarnet::sim
