// Time-evolving storm playback: onset → peak → decay → repair, one
// incremental-connectivity walk per phase instead of one component build
// per time step (ROADMAP item 3, the paper's §5 machinery made dynamic).
//
// The model. A trial's end-state randomness is the PR 4 CRN draw: one
// uniform u_c per repeater-bearing cable, dead iff u_c < p_c (the end-state
// DeathProbabilityTable). The storm spreads that end-state over time as a
// proportional-hazard process (gic/timeline): by storm step g the cable has
// absorbed dose share s_g of the whole storm (non-decreasing, s_last = 1),
// and is dead iff u_c < 1 - (1-p_c)^{s_g}. Taking logs once per cable turns
// that into a threshold test — dead at step g iff s_g > log1p(-u_c) /
// log1p(-p_c) — so the *same* u_c prices every step, the per-trial failure
// sequence is monotone by construction, and the end of the storm lands
// exactly on the end-state draw (s = 1 ⟺ u_c < p_c). One uniform per
// mortal cable per trial, like SweepEngine.
//
// After the storm ends, repairs heal the dead set monotonically: fault
// counts per dead cable (recovery::FaultSampler, drawn from a split
// substream so the CRN draw stays untouched), fleet scheduling
// (recovery::RepairScheduler), and a cable is alive at repair step r iff
// its restoration hour has passed.
//
// Both phases are nested dead-set sequences, so each is one
// IncrementalConnectivity resurrection walk: the storm walk runs the step
// axis forward-in-severity (failures accumulate ⇒ walk resurrects
// backward), the repair walk runs it *reversed* (repairs heal ⇒ the
// reversed axis accumulates failures again). A T-step playback costs ~two
// component builds instead of T.
//
// Determinism: trial t draws from child stream t of the run seed,
// consuming exactly one uniform per repeater-bearing cable in ascending
// cable order, then fault counts from split(kRepairStream) of the same
// child; trials reduce by the chunked rule of sim/chunked.h, so every
// observer aggregate is bit-identical for every thread count (asserted by
// bench/perf_timeline.cpp, along with bit-identity against a naive
// per-step full-recompute baseline and zero steady-state allocations).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gic/timeline.h"
#include "recovery/repair.h"
#include "sim/chunked.h"
#include "sim/incremental.h"
#include "sim/monte_carlo.h"
#include "util/stats.h"

namespace solarnet::sim {

// The playback axis: storm steps (absolute hours from sudden commencement,
// strictly increasing, paired with the cumulative dose share absorbed by
// each step) followed by a uniform grid of repair steps.
struct TimelineConfig {
  // Storm steps. dose_share must be the same size, within [0, 1],
  // non-decreasing, and end at exactly 1.0 — the proportional-hazard axis
  // normalization that makes the storm's last step reproduce the end-state
  // CRN draw bit for bit.
  std::vector<double> storm_hours;
  std::vector<double> dose_share;

  // Repair steps: repair_steps samples at storm_end + (r+1) *
  // repair_step_hours. Repairs begin when the storm ends; with ~60 ships
  // and hundreds of damaged cables, restoration takes months — the default
  // horizon is 24 x 15 days = 360 days.
  std::size_t repair_steps = 24;
  double repair_step_hours = 15.0 * 24.0;

  // Fleet sizing for recovery::RepairScheduler.
  recovery::RepairFleetParams fleet;

  // Synthetic axis from the phase profile: steps every `step_hours` up to
  // profile.total_hours (the last step lands exactly on total_hours, where
  // damage_fraction_by is exactly 1), starting at hour 0 with share 0.
  static TimelineConfig from_profile(const gic::StormPhaseProfile& profile,
                                     double step_hours = 1.0);

  // Observed axis, e.g. hours + gic::dose_share_from_kp of a
  // datasets::space_weather timeline. Validated by the engine constructor.
  static TimelineConfig from_dose_schedule(std::vector<double> hours,
                                           std::vector<double> share);
};

class TimelineEngine;

// Per-trial read view handed to observers: the raw event times plus the
// per-step connectivity percentages the two walks produced. Spans point
// into per-worker scratch — valid only during observe().
struct TimelineView {
  std::size_t trial = 0;
  const TimelineEngine* engine = nullptr;

  // Per cable: first storm step at which the cable is dead;
  // == storm_step_count() when it survives the whole storm.
  std::span<const std::uint32_t> fail_step;
  // Per cable: absolute restoration hour (storm end + schedule completion);
  // 0 and meaningless for cables that never failed.
  std::span<const double> restore_hour;

  // Per unified playback step (storm steps then repair steps; the hour
  // axis is engine->step_hour(i)).
  std::span<const double> cables_dead_pct;
  std::span<const double> nodes_unreachable_pct;
  std::span<const double> largest_component_pct;

  // The trial's child rng, positioned after the failure + fault draws.
  // Observers needing extra randomness must use split substreams.
  const util::Rng* rng = nullptr;
  util::Rng substream(std::uint64_t key) const { return rng->split(key); }
};

// Temporal observer contract — same shape and thread rules as
// sim::TrialObserver: begin_run sizes the ChunkSlots, observe() runs on
// worker threads (chunk-distinct concurrent calls), end_run reads the
// merged slots (sim/chunked.h).
class TimelineObserver {
 public:
  virtual ~TimelineObserver() = default;
  virtual void begin_run(const TimelineEngine& engine, std::size_t workers,
                         std::size_t chunks) = 0;
  virtual void observe(const TimelineView& view, std::size_t worker,
                       std::size_t chunk) = 0;
  virtual void end_run() = 0;
};

// Per-worker scratch. Sized on first use, never shrunk: a warm scratch
// makes playback() allocation-free (asserted by bench/perf_timeline.cpp).
struct TimelineScratch {
  std::vector<double> uniforms;            // one CRN draw per mortal cable
  std::vector<std::uint32_t> fail_step;    // per cable: first dead step
  std::vector<std::uint8_t> dead;          // end-of-storm dead set
  std::vector<std::uint32_t> faults;       // per cable: destroyed repeaters
  std::vector<double> restore_day;         // schedule completion, repair days
  std::vector<double> restore_hour;        // absolute hours
  std::vector<std::uint32_t> reversed_first_dead;  // repair axis, reversed
  recovery::RepairScheduler::Scratch repair;
  IncrementalScratch inc;
  // Per unified step, filled by the two walks.
  std::vector<double> cables_dead_pct;
  std::vector<double> nodes_unreachable_pct;
  std::vector<double> largest_component_pct;
};

class TimelineEngine {
 public:
  // The fault-count substream key: fault draws come from
  // rng.split(kRepairStream) of the trial's child stream, taken after the
  // CRN draw, so adding/removing repair modelling never perturbs the
  // failure randomness (and vice versa).
  static constexpr std::uint64_t kRepairStream = 0x7265706169727321ULL;

  // `table` is the end-state per-cable death probability the storm spreads
  // over time (plain death_probability_table(model), or the spliced table
  // from core::plan_shutdown when a shutdown policy gates which cables can
  // fail at all). Throws std::invalid_argument when the simulator's rule
  // is not kAnyRepeaterFails, the table size mismatches the network, a
  // probability is outside [0, 1], or the config axis is malformed (empty
  // / non-increasing hours, dose_share not a [0,1] non-decreasing sequence
  // ending at exactly 1.0, zero repair steps, non-positive step width,
  // empty fleet). The simulator and its network must outlive the engine.
  TimelineEngine(const FailureSimulator& simulator, DeathProbabilityTable table,
                 TimelineConfig config);

  const FailureSimulator& simulator() const noexcept { return sim_; }
  const TimelineConfig& config() const noexcept { return config_; }
  const DeathProbabilityTable& table() const noexcept { return table_; }

  std::size_t storm_step_count() const noexcept {
    return config_.storm_hours.size();
  }
  std::size_t repair_step_count() const noexcept {
    return config_.repair_steps;
  }
  std::size_t step_count() const noexcept { return step_hour_.size(); }
  // Absolute hour of unified playback step i (storm steps then repair
  // steps).
  double step_hour(std::size_t step) const { return step_hour_.at(step); }
  double storm_end_hour() const noexcept { return config_.storm_hours.back(); }
  // Largest-component share (% of connected nodes) with every cable alive —
  // the generated networks are not fully connected even at baseline, so
  // "partitioned" is only meaningful relative to this.
  double baseline_largest_pct() const noexcept {
    return baseline_largest_pct_;
  }

  // Observers must outlive the engine's run() calls.
  void add_observer(TimelineObserver& observer);

  // `trials` playbacks; trial t uses child stream t of `seed`. Runs on the
  // simulator's config().threads workers (or the explicit override; 0 =
  // hardware concurrency). Observer aggregates are bit-identical for every
  // thread count.
  void run(std::size_t trials, std::uint64_t seed) const;
  void run(std::size_t trials, std::uint64_t seed, std::size_t threads) const;

  // The playback kernel: CRN draw → per-cable fail steps → storm walk →
  // fault draw → fleet schedule → repair walk. Fills every scratch field;
  // allocation-free once scratch is warm. Exposed for the bench gates.
  void playback(util::Rng& rng, TimelineScratch& scratch) const;

  // One observed trial: playback on child stream `trial` of `base`, then
  // observer dispatch.
  void run_trial(std::size_t trial, const util::Rng& base,
                 TimelineScratch& scratch, std::size_t worker,
                 std::size_t chunk) const;

 private:
  const FailureSimulator& sim_;
  DeathProbabilityTable table_;
  TimelineConfig config_;
  IncrementalConnectivity inc_;
  recovery::FaultSampler fault_sampler_;
  recovery::RepairScheduler scheduler_;
  // Repeater-bearing cables in ascending order — the only ones that draw.
  std::vector<std::uint32_t> mortal_;
  // Per cable: log1p(-p_c), the hazard denominator (0 for immortal cables,
  // -inf for p_c == 1 — both handled branch-free by the threshold test).
  std::vector<double> log_survival_;
  // Unified absolute-hour axis: storm_hours then the repair grid.
  std::vector<double> step_hour_;
  double baseline_largest_pct_ = 0.0;
  std::vector<TimelineObserver*> observers_;
};

// Built-in temporal connectivity observer: per-step distributions of the
// three playback percentages, the distribution of time-to-partition (first
// step hour at which the largest surviving component drops below
// `partition_threshold_pct` of its PRE-STORM size — see
// TimelineEngine::baseline_largest_pct), and the per-trial peak
// unreachable share. Thread-count bit-identical via per-chunk slots merged
// ascending.
struct TimelineStepStats {
  double hour = 0.0;
  util::RunningStats cables_dead_pct;
  util::RunningStats nodes_unreachable_pct;
  util::RunningStats largest_component_pct;
};

struct TimelineConnectivityResult {
  std::size_t trials = 0;
  double partition_threshold_pct = 50.0;
  std::vector<TimelineStepStats> steps;
  // Trials whose largest component dropped below the threshold at any step.
  std::size_t partitioned_trials = 0;
  // Hour of first partition — over partitioned trials only.
  util::RunningStats time_to_partition_hours;
  // Per-trial max of nodes_unreachable_pct — over all trials.
  util::RunningStats peak_nodes_unreachable_pct;
};

class TimelineConnectivityObserver final : public TimelineObserver {
 public:
  explicit TimelineConnectivityObserver(double partition_threshold_pct = 50.0);

  // Valid after end_run().
  const TimelineConnectivityResult& result() const noexcept {
    return result_;
  }

  void begin_run(const TimelineEngine& engine, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const TimelineView& view, std::size_t worker,
               std::size_t chunk) override;
  void end_run() override;

 private:
  struct StepSlot {
    util::RunningStats cables;
    util::RunningStats nodes;
    util::RunningStats largest;
    static constexpr auto kFields =
        std::tuple{&StepSlot::cables, &StepSlot::nodes, &StepSlot::largest};
  };
  struct TrialSlot {
    std::size_t partitioned = 0;
    util::RunningStats time_to_partition;
    util::RunningStats peak_unreachable;
    static constexpr auto kFields =
        std::tuple{&TrialSlot::partitioned, &TrialSlot::time_to_partition,
                   &TrialSlot::peak_unreachable};
  };
  double threshold_;
  // threshold_ / 100 * baseline_largest_pct, fixed at begin_run.
  double cutoff_pct_ = 0.0;
  const TimelineEngine* engine_ = nullptr;
  ChunkSlots<StepSlot> steps_{"TimelineConnectivityObserver"};  // per step
  ChunkSlots<TrialSlot> trials_{"TimelineConnectivityObserver"};
  TimelineConnectivityResult result_;
};

}  // namespace solarnet::sim
