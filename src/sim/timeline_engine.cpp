#include "sim/timeline_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace solarnet::sim {

TimelineConfig TimelineConfig::from_profile(
    const gic::StormPhaseProfile& profile, double step_hours) {
  if (!(step_hours > 0.0) || !std::isfinite(step_hours)) {
    throw std::invalid_argument(
        "TimelineConfig::from_profile: step_hours must be finite and > 0");
  }
  if (!(profile.total_hours > 0.0)) {
    throw std::invalid_argument(
        "TimelineConfig::from_profile: profile.total_hours must be > 0");
  }
  const std::size_t steps = profile_step_count(profile, step_hours);
  if (steps > kMaxStormSteps) {
    throw std::invalid_argument(
        "TimelineConfig::from_profile: step_hours lays out more than 4096 "
        "storm steps");
  }
  TimelineConfig config;
  config.storm_hours.reserve(steps);
  config.dose_share.reserve(steps);
  config.storm_hours.push_back(0.0);
  config.dose_share.push_back(0.0);
  for (double h = step_hours; h < profile.total_hours; h += step_hours) {
    config.storm_hours.push_back(h);
    config.dose_share.push_back(gic::damage_fraction_by(profile, h));
  }
  // The final step lands exactly on total_hours, where damage_fraction_by
  // is dose(total)/dose(total) == 1.0 exactly — the normalization the
  // engine requires.
  config.storm_hours.push_back(profile.total_hours);
  config.dose_share.push_back(1.0);
  return config;
}

std::size_t TimelineConfig::profile_step_count(
    const gic::StormPhaseProfile& profile, double step_hours) {
  // Hour 0 and total_hours, plus from_profile's loop, stopped at the cap so
  // that no step width (a tiny, negative or NaN one) runs it for longer.
  std::size_t steps = 2;
  for (double h = step_hours; h < profile.total_hours; h += step_hours) {
    if (++steps > kMaxStormSteps) break;
  }
  return steps;
}

TimelineConfig TimelineConfig::from_dose_schedule(std::vector<double> hours,
                                                  std::vector<double> share) {
  TimelineConfig config;
  config.storm_hours = std::move(hours);
  config.dose_share = std::move(share);
  return config;
}

TimelineEngine::TimelineEngine(const FailureSimulator& simulator,
                               DeathProbabilityTable table,
                               TimelineConfig config)
    : sim_(simulator),
      table_(std::move(table)),
      config_(std::move(config)),
      inc_(simulator.network()),
      fault_sampler_(simulator, table_),
      scheduler_(simulator.network(), config_.fleet) {
  if (sim_.config().rule != CableDeathRule::kAnyRepeaterFails) {
    throw std::invalid_argument(
        "TimelineEngine: the proportional-hazard CRN threshold models the "
        "any-repeater-fails rule only; construct the FailureSimulator with "
        "CableDeathRule::kAnyRepeaterFails");
  }
  const std::size_t cables = sim_.network().cable_count();
  if (table_.probability.size() != cables) {
    throw std::invalid_argument("TimelineEngine: table size mismatch");
  }
  const std::size_t steps = config_.storm_hours.size();
  if (steps == 0) {
    throw std::invalid_argument("TimelineEngine: empty storm axis");
  }
  if (config_.dose_share.size() != steps) {
    throw std::invalid_argument(
        "TimelineEngine: dose_share size mismatches storm_hours");
  }
  for (std::size_t g = 0; g < steps; ++g) {
    const double h = config_.storm_hours[g];
    if (!std::isfinite(h) || h < 0.0 ||
        (g > 0 && h <= config_.storm_hours[g - 1])) {
      throw std::invalid_argument(
          "TimelineEngine: storm_hours must be finite, >= 0 and strictly "
          "increasing");
    }
    const double s = config_.dose_share[g];
    if (!(s >= 0.0 && s <= 1.0) ||
        (g > 0 && s < config_.dose_share[g - 1])) {
      throw std::invalid_argument(
          "TimelineEngine: dose_share must be non-decreasing within [0, 1]");
    }
  }
  if (config_.dose_share.back() != 1.0) {
    throw std::invalid_argument(
        "TimelineEngine: dose_share must end at exactly 1.0 (the end of "
        "the storm reproduces the end-state draw)");
  }
  if (config_.repair_steps == 0) {
    throw std::invalid_argument("TimelineEngine: repair_steps must be >= 1");
  }
  if (!(config_.repair_step_hours > 0.0) ||
      !std::isfinite(config_.repair_step_hours)) {
    throw std::invalid_argument(
        "TimelineEngine: repair_step_hours must be finite and > 0");
  }

  log_survival_.assign(cables, 0.0);
  for (topo::CableId c = 0; c < cables; ++c) {
    const double p = table_.probability[c];
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument(
          "TimelineEngine: death probability outside [0, 1]");
    }
    log_survival_[c] = std::log1p(-p);
    if (sim_.cable_repeater_count(c) > 0) {
      mortal_.push_back(static_cast<std::uint32_t>(c));
    }
  }

  step_hour_ = config_.storm_hours;
  step_hour_.reserve(steps + config_.repair_steps);
  const double storm_end = config_.storm_hours.back();
  for (std::size_t r = 0; r < config_.repair_steps; ++r) {
    step_hour_.push_back(storm_end + static_cast<double>(r + 1) *
                                         config_.repair_step_hours);
  }

  // Pre-storm largest component, via a one-step walk with every cable in
  // the always-alive bucket — the partition observer's reference size.
  {
    IncrementalScratch scratch;
    const std::vector<std::uint32_t> alive(cables, 1);
    inc_.bucket_by_first_dead(alive, 1, scratch);
    const std::size_t connected = inc_.connected_node_count();
    inc_.walk(1, scratch,
              [&](std::size_t, const IncrementalAggregates& agg) {
                baseline_largest_pct_ = percent_of(agg.largest, connected);
              });
  }
}

void TimelineEngine::add_observer(TimelineObserver& observer) {
  observers_.push_back(&observer);
}

void TimelineEngine::playback(util::Rng& rng, TimelineScratch& s) const {
  const std::size_t cables = sim_.network().cable_count();
  const std::size_t storm_steps = storm_step_count();
  const std::size_t repair_steps = config_.repair_steps;
  const std::size_t total_steps = storm_steps + repair_steps;

  // 1. CRN draw — one uniform per mortal cable, ascending, exactly like
  // SweepEngine::run_trial (serial rng chain first, thresholds after).
  s.uniforms.resize(mortal_.size());
  for (std::size_t i = 0; i < mortal_.size(); ++i) {
    s.uniforms[i] = rng.uniform();
  }

  // 2. Per-cable first dead step. The cable is dead at step g iff
  // dose_share[g] > log1p(-u) / log1p(-p) (proportional hazard, logs taken
  // once); the share row is non-decreasing so the suffix count gives the
  // first dead step, `storm_steps` meaning it survives the storm. u >= p
  // makes the threshold >= 1 which no share exceeds — the u < p guard
  // below is a fast path, not a correctness condition.
  s.fail_step.assign(cables, static_cast<std::uint32_t>(storm_steps));
  const double* share = config_.dose_share.data();
  for (std::size_t i = 0; i < mortal_.size(); ++i) {
    const std::uint32_t c = mortal_[i];
    const double u = s.uniforms[i];
    if (!(u < table_.probability[c])) continue;
    const double threshold = std::log1p(-u) / log_survival_[c];
    std::uint32_t dead_steps = 0;
    for (std::size_t g = 0; g < storm_steps; ++g) {
      dead_steps += share[g] > threshold ? 1u : 0u;
    }
    s.fail_step[c] = static_cast<std::uint32_t>(storm_steps) - dead_steps;
  }

  // 3. Storm walk: failures accumulate forward in time, so the
  // resurrection walk runs the axis backward, recording in place.
  s.cables_failed_pct.resize(total_steps);
  s.nodes_unreachable_pct.resize(total_steps);
  s.largest_component_pct.resize(total_steps);
  const std::size_t connected = inc_.connected_node_count();
  const auto record = [&](std::size_t at, const IncrementalAggregates& agg) {
    s.cables_failed_pct[at] = percent_of(cables - agg.alive_cables, cables);
    s.nodes_unreachable_pct[at] =
        percent_of(connected - agg.lit_nodes, connected);
    s.largest_component_pct[at] = percent_of(agg.largest, connected);
  };
  inc_.bucket_by_first_dead(s.fail_step, storm_steps, s.inc);
  inc_.walk(storm_steps, s.inc,
            [&](std::size_t g, const IncrementalAggregates& agg) {
              record(g, agg);
            });

  // 4. End-of-storm dead set → fault counts (split substream: the CRN draw
  // stays byte-identical whether or not repairs are modelled) → fleet
  // schedule. Keyed off fail_step, the single source of truth.
  s.dead.resize(cables);
  for (std::size_t c = 0; c < cables; ++c) {
    s.dead[c] = s.fail_step[c] < storm_steps ? 1 : 0;
  }
  util::Rng repair_rng = rng.split(kRepairStream);
  s.faults.resize(cables);
  fault_sampler_.sample(s.dead, repair_rng, s.faults);
  s.restore_day.resize(cables);
  scheduler_.schedule(s.dead, s.faults, s.repair, s.restore_day);

  // 5. Repair axis, reversed. A dead cable is still dead at repair step r
  // iff step_hour < restore_hour; repairs heal monotonically, so on the
  // *reversed* axis (g' = repair_steps-1-r) the dead sets nest again and
  // the same walk applies. reversed_first_dead = repair_steps - (number of
  // repair steps the cable is dead at); never-failed cables sit in the
  // always-alive bucket.
  const double storm_end = storm_end_hour();
  s.restore_hour.resize(cables);
  s.reversed_first_dead.assign(cables,
                               static_cast<std::uint32_t>(repair_steps));
  const double* repair_hour = step_hour_.data() + storm_steps;
  for (std::size_t c = 0; c < cables; ++c) {
    if (!s.dead[c]) {
      s.restore_hour[c] = 0.0;
      continue;
    }
    const double hour = storm_end + s.restore_day[c] * 24.0;
    s.restore_hour[c] = hour;
    std::uint32_t dead_steps = 0;
    for (std::size_t r = 0; r < repair_steps; ++r) {
      dead_steps += repair_hour[r] < hour ? 1u : 0u;
    }
    s.reversed_first_dead[c] =
        static_cast<std::uint32_t>(repair_steps) - dead_steps;
  }
  inc_.bucket_by_first_dead(s.reversed_first_dead, repair_steps, s.inc);
  inc_.walk(repair_steps, s.inc,
            [&](std::size_t g, const IncrementalAggregates& agg) {
              record(total_steps - 1 - g, agg);
            });
}

void TimelineEngine::run_trial(std::size_t trial, const util::Rng& base,
                               TimelineScratch& s, std::size_t worker,
                               std::size_t chunk) const {
  util::Rng rng = base.split(trial);
  playback(rng, s);
  TimelineView view;
  view.fail_step = s.fail_step;
  view.restore_hour = s.restore_hour;
  view.cables_failed_pct = s.cables_failed_pct;
  view.nodes_unreachable_pct = s.nodes_unreachable_pct;
  view.largest_component_pct = s.largest_component_pct;
  for (TimelineObserver* observer : observers_) {
    observer->observe(view, worker, chunk);
  }
}

void TimelineEngine::run(std::size_t trials, std::uint64_t seed) const {
  run(trials, seed, sim_.config().threads);
}

void TimelineEngine::run(std::size_t trials, std::uint64_t seed,
                         std::size_t threads) const {
  const ChunkedRun chunked(trials, threads);
  for (TimelineObserver* observer : observers_) {
    observer->begin_run(*this, chunked.workers(), chunked.chunks());
  }
  std::vector<TimelineScratch> scratch(chunked.workers());
  const util::Rng base(seed);
  chunked.run([&](const ChunkTask& task) {
    for (std::size_t t = task.begin; t < task.end; ++t) {
      run_trial(t, base, scratch[task.worker], task.worker, task.first_chunk);
    }
  });
  for (TimelineObserver* observer : observers_) {
    observer->end_run();
  }
}

TimelineConnectivityObserver::TimelineConnectivityObserver(
    double partition_threshold_pct)
    : threshold_(partition_threshold_pct) {
  if (!(threshold_ >= 0.0 && threshold_ <= 100.0)) {
    throw std::invalid_argument(
        "TimelineConnectivityObserver: partition threshold outside "
        "[0, 100]");
  }
}

void TimelineConnectivityObserver::begin_run(const TimelineEngine& engine,
                                             std::size_t /*workers*/,
                                             std::size_t chunks) {
  engine_ = &engine;
  cutoff_pct_ = threshold_ / 100.0 * engine.baseline_largest_pct();
  steps_.assign(chunks, engine.step_count());
  trials_.assign(chunks);
  result_ = TimelineConnectivityResult{};
  result_.partition_threshold_pct = threshold_;
}

void TimelineConnectivityObserver::observe(const TimelineView& view,
                                           std::size_t /*worker*/,
                                           std::size_t chunk) {
  TrialSlot& trial = trials_.at(chunk);
  double peak = 0.0;
  bool partitioned = false;
  for (std::size_t i = 0; i < steps_.width(); ++i) {
    steps_.at(chunk, i).add(view.cables_failed_pct[i],
                            view.nodes_unreachable_pct[i],
                            view.largest_component_pct[i]);
    peak = std::max(peak, view.nodes_unreachable_pct[i]);
    if (!partitioned && view.largest_component_pct[i] < cutoff_pct_) {
      partitioned = true;
      ++trial.partitioned;
      trial.time_to_partition.add(engine_->step_hour(i));
    }
  }
  trial.peak_unreachable.add(peak);
}

void TimelineConnectivityObserver::end_run() {
  result_.steps.resize(steps_.width());
  for (std::size_t i = 0; i < steps_.width(); ++i) {
    result_.steps[i] = {steps_.merged(i), engine_->step_hour(i)};
  }
  const TrialSlot merged = trials_.merged();
  result_.partitioned_trials = merged.partitioned;
  result_.time_to_partition_hours = merged.time_to_partition;
  result_.peak_nodes_unreachable_pct = merged.peak_unreachable;
  result_.trials = merged.peak_unreachable.count();
  steps_.release();
  trials_.release();
}

}  // namespace solarnet::sim
