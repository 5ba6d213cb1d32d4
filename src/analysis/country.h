// Country-scale connectivity analysis (§4.3.4). Because cable deaths are
// independent Bernoulli events under every failure model in the library,
// the probability that a country/corridor/city loses ALL of a set of
// cables is the exact product of per-cable death probabilities — so these
// results are analytic (no Monte-Carlo noise), matching the style of the
// paper's narrative ("US-Europe connectivity is lost with probability
// 0.8", "Shanghai loses all its long-distance connectivity", ...).
#pragma once

#include <string>
#include <vector>

#include "gic/failure_model.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "topology/network.h"
#include "util/stats.h"

namespace solarnet::analysis {

// Cables with at least one landing in `country` (ISO code) and at least one
// landing in a different country — i.e. the country's international cables.
std::vector<topo::CableId> international_cables(
    const topo::InfrastructureNetwork& net, const std::string& country);

// Cables with landings in both country sets (a "corridor", e.g. the
// US/Canada <-> Europe transatlantic corridor).
std::vector<topo::CableId> corridor_cables(
    const topo::InfrastructureNetwork& net,
    const std::vector<std::string>& countries_a,
    const std::vector<std::string>& countries_b);

// Cables landing at a specific node (e.g. the Shanghai landing station).
std::vector<topo::CableId> cables_at_named_node(
    const topo::InfrastructureNetwork& net, const std::string& node_name);

// Probability that every cable in `cables` dies (product of exact per-cable
// death probabilities from the simulator's repeater layout). Returns 1.0
// for an empty set — no cables means the corridor is already absent.
double all_fail_probability(const sim::FailureSimulator& simulator,
                            const gic::RepeaterFailureModel& model,
                            const std::vector<topo::CableId>& cables);

// Expected number of surviving cables in the set.
double expected_survivors(const sim::FailureSimulator& simulator,
                          const gic::RepeaterFailureModel& model,
                          const std::vector<topo::CableId>& cables);

// Full country summary under one model.
struct CountryConnectivity {
  std::string country;
  std::size_t international_cable_count = 0;
  double all_fail_probability = 0.0;
  double expected_surviving_cables = 0.0;
};

CountryConnectivity country_connectivity(
    const topo::InfrastructureNetwork& net,
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model, const std::string& country);

// Monte-Carlo counterpart of CountryConnectivity, observed on the trial
// pipeline's shared failure draws: per trial, how many of the country's
// international cables survived, and was the country cut off entirely?
// Converges to the analytic all_fail_probability / expected_survivors, but
// is measured on the same realizations as every other observer — so joint
// questions ("was the US isolated in the trials where DNS degraded?") stay
// answerable.
struct CountryIsolationResult {
  std::string country;
  std::size_t international_cable_count = 0;
  std::size_t trials = 0;
  std::size_t isolated_trials = 0;  // every international cable dead
  util::RunningStats surviving_cables;

  double isolation_rate() const noexcept {
    return trials > 0 ? static_cast<double>(isolated_trials) /
                            static_cast<double>(trials)
                      : 0.0;
  }
};

// Observes several countries at once; cable sets are resolved once at
// construction and each trial costs O(sum of international cables). Needs
// no connectivity pass (isolation is a pure cable-set property, §4.3.4's
// definition). On the 64-lane path a batch costs one bit-sliced count per
// country: the survivors of every lane are summed from the cables' dead
// words at once.
class CountryIsolationObserver final : public sim::CheckpointableObserver {
 public:
  CountryIsolationObserver(const topo::InfrastructureNetwork& net,
                           std::vector<std::string> countries);

  // Valid after TrialPipeline::run(); one entry per country, input order.
  const std::vector<CountryIsolationResult>& results() const noexcept {
    return results_;
  }

  bool needs_components() const override { return false; }
  void begin_run(const sim::TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const sim::TrialView& view, std::size_t worker,
               std::size_t chunk) override;
  bool supports_batch() const override { return true; }
  void observe_batch(const sim::BatchTrialView& view, std::size_t worker,
                     std::size_t first_chunk) override;
  void end_run() override;

  // The country list is part of the id: it fixes the per-chunk slot layout,
  // so a checkpoint for a different list must be rejected, not misapplied.
  std::string checkpoint_id() const override;
  void save_chunk(std::size_t chunk, util::ByteWriter& out) const override;
  void load_chunk(std::size_t chunk, util::ByteReader& in) override;

 private:
  struct Slot {
    std::size_t isolated = 0;
    util::RunningStats survivors;
    static constexpr auto kFields =
        std::tuple{&Slot::isolated, &Slot::survivors};
  };
  void add(std::size_t chunk, std::size_t country, std::size_t survivors);

  std::vector<std::string> countries_;
  std::vector<std::vector<topo::CableId>> cables_;  // per country
  sim::ChunkSlots<Slot> slots_{"CountryIsolationObserver"};  // per country
  std::vector<CountryIsolationResult> results_;
};

}  // namespace solarnet::analysis
