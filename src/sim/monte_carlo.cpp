#include "sim/monte_carlo.h"

#include <cmath>
#include <stdexcept>

#include "sim/pipeline.h"
#include "topology/repeater.h"

namespace solarnet::sim {

void validate_trial_config(const TrialConfig& config) {
  // Negated comparisons so NaN fails each check: NaN <= 0.0 is false, which
  // the old spacing check silently accepted.
  if (!std::isfinite(config.repeater_spacing_km) ||
      !(config.repeater_spacing_km > 0.0)) {
    throw std::invalid_argument(
        "TrialConfig: repeater_spacing_km must be finite and positive, got " +
        std::to_string(config.repeater_spacing_km));
  }
  if (config.rule == CableDeathRule::kFractionFails &&
      !(config.death_fraction > 0.0 && config.death_fraction <= 1.0)) {
    throw std::invalid_argument(
        "TrialConfig: death_fraction must be in (0, 1], got " +
        std::to_string(config.death_fraction));
  }
  if (config.threads > kMaxReasonableThreads) {
    throw std::invalid_argument(
        "TrialConfig: threads must be <= " +
        std::to_string(kMaxReasonableThreads) + ", got " +
        std::to_string(config.threads));
  }
}

FailureSimulator::FailureSimulator(const topo::InfrastructureNetwork& net,
                                   TrialConfig config)
    : net_(net), config_(config) {
  validate_trial_config(config_);
  cable_offset_.reserve(net.cable_count() + 1);
  cable_offset_.push_back(0);
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const double max_abs_lat = net.cable_max_abs_latitude(c);
    const auto positions = topo::repeater_positions(
        net.cable(c), c, net.nodes(), config_.repeater_spacing_km);
    for (const topo::Repeater& r : positions) {
      repeaters_.push_back({r.location, max_abs_lat});
    }
    if (positions.empty()) ++repeaterless_cables_;
    total_repeaters_ += positions.size();
    cable_offset_.push_back(repeaters_.size());
  }
  connected_nodes_ = net.connected_node_count();
}

double FailureSimulator::average_repeaters_per_cable() const noexcept {
  if (net_.cable_count() == 0) return 0.0;
  return static_cast<double>(total_repeaters_) /
         static_cast<double>(net_.cable_count());
}

double FailureSimulator::cable_death_probability(
    topo::CableId cable, const gic::RepeaterFailureModel& model) const {
  if (cable + 1 >= cable_offset_.size()) {
    throw std::out_of_range("cable_death_probability: cable id");
  }
  double survive = 1.0;
  for (std::size_t i = cable_offset_[cable]; i < cable_offset_[cable + 1];
       ++i) {
    survive *= 1.0 - model.failure_probability(repeaters_[i]);
    if (survive == 0.0) break;
  }
  return 1.0 - survive;
}

DeathProbabilityTable FailureSimulator::death_probability_table(
    const gic::RepeaterFailureModel& model) const {
  DeathProbabilityTable table;
  table.probability.reserve(net_.cable_count());
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    table.probability.push_back(cable_death_probability(c, model));
  }
  return table;
}

namespace {

// run_trials' observer: the two percentages every trial view carries. It
// needs no component build and takes whole batches on the 64-lane path.
class AggregateObserver final : public TrialObserver {
 public:
  bool needs_components() const override { return false; }
  bool supports_batch() const override { return true; }
  void begin_run(const TrialPipeline& /*pipeline*/, std::size_t /*workers*/,
                 std::size_t chunks) override {
    slots_.assign(chunks);
  }
  void observe(const TrialView& view, std::size_t /*worker*/,
               std::size_t chunk) override {
    add(chunk, view.cables_failed_pct, view.nodes_unreachable_pct);
  }
  void observe_batch(const BatchTrialView& view, std::size_t /*worker*/,
                     std::size_t first_chunk) override {
    for (unsigned lane = 0; lane < view.lanes; ++lane) {
      add(first_chunk + lane / kTrialChunk, view.cables_failed_pct[lane],
          view.nodes_unreachable_pct[lane]);
    }
  }
  void end_run() override {
    const Slot merged = slots_.merged();
    result_ = {merged.cables, merged.nodes, merged.cables.count()};
    slots_.release();
  }
  const AggregateResult& result() const noexcept { return result_; }

 private:
  struct Slot {
    util::RunningStats cables;
    util::RunningStats nodes;
    static constexpr auto kFields = std::tuple{&Slot::cables, &Slot::nodes};
  };
  void add(std::size_t chunk, double cables_pct, double nodes_pct) {
    Slot& slot = slots_.at(chunk);
    slot.cables.add(cables_pct);
    slot.nodes.add(nodes_pct);
  }

  ChunkSlots<Slot> slots_{"AggregateObserver"};
  AggregateResult result_;
};

}  // namespace

std::vector<bool> FailureSimulator::sample_cable_failures(
    const gic::RepeaterFailureModel& model, util::Rng& rng) const {
  util::Bitset dead;
  sample_cable_failures(model, rng, dead);
  return dead.to_bools();
}

void FailureSimulator::sample_cable_failures(
    const gic::RepeaterFailureModel& model, util::Rng& rng,
    util::Bitset& dead) const {
  dead.assign(net_.cable_count(), false);
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    const std::size_t begin = cable_offset_[c];
    const std::size_t end = cable_offset_[c + 1];
    if (begin == end) continue;  // repeaterless cables never die of GIC
    if (config_.rule == CableDeathRule::kAnyRepeaterFails) {
      dead.set(c, rng.bernoulli(cable_death_probability(c, model)));
    } else {
      std::size_t failed = 0;
      for (std::size_t i = begin; i < end; ++i) {
        if (rng.bernoulli(model.failure_probability(repeaters_[i]))) {
          ++failed;
        }
      }
      const double fraction = static_cast<double>(failed) /
                              static_cast<double>(end - begin);
      dead.set(c, fraction >= config_.death_fraction);
    }
  }
}

void FailureSimulator::sample_cable_failures(const DeathProbabilityTable& table,
                                             util::Rng& rng,
                                             util::Bitset& dead) const {
  if (config_.rule != CableDeathRule::kAnyRepeaterFails) {
    throw std::invalid_argument(
        "sample_cable_failures: probability tables only model the "
        "any-repeater-fails rule");
  }
  if (table.probability.size() != net_.cable_count()) {
    throw std::invalid_argument("sample_cable_failures: table size mismatch");
  }
  dead.assign(net_.cable_count(), false);
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    if (cable_offset_[c] == cable_offset_[c + 1]) continue;
    dead.set(c, rng.bernoulli(table.probability[c]));
  }
}

TrialResult FailureSimulator::run_trial(const gic::RepeaterFailureModel& model,
                                        util::Rng& rng) const {
  util::Bitset dead;
  sample_cable_failures(model, rng, dead);
  std::vector<topo::NodeId> unreachable;
  net_.unreachable_nodes(dead, unreachable);
  TrialResult result;
  result.cable_dead = dead.to_bools();
  result.cables_failed = dead.count();
  result.nodes_unreachable = unreachable.size();
  result.cables_failed_pct =
      net_.cable_count() > 0
          ? 100.0 * static_cast<double>(result.cables_failed) /
                static_cast<double>(net_.cable_count())
          : 0.0;
  result.nodes_unreachable_pct =
      connected_nodes_ > 0
          ? 100.0 * static_cast<double>(result.nodes_unreachable) /
                static_cast<double>(connected_nodes_)
          : 0.0;
  return result;
}

AggregateResult FailureSimulator::run_trials(
    const gic::RepeaterFailureModel& model, std::size_t trials,
    std::uint64_t seed) const {
  TrialPipeline pipeline(*this, model);
  AggregateObserver aggregate;
  pipeline.add_observer(aggregate);
  pipeline.run(trials, seed);
  return aggregate.result();
}

}  // namespace solarnet::sim
