// Temporal storm structure. A geomagnetic storm is not an impulse: a
// sudden commencement, hours of main phase with the strongest dB/dt, and a
// days-long recovery tail. The time profile matters for §5.2 (how much of
// the lead time is left when the main phase begins; whether a partial
// shutdown completes in time) and for time-resolved failure accumulation.
#pragma once

#include <span>
#include <vector>

#include "gic/failure_model.h"
#include "gic/storm.h"
#include "sim/monte_carlo.h"

namespace solarnet::gic {

struct StormPhaseProfile {
  // Hours from first impact (sudden commencement) to peak activity.
  double onset_hours = 2.0;
  // Duration of the main phase at near-peak intensity.
  double main_phase_hours = 10.0;
  // Exponential recovery time constant after the main phase.
  double recovery_tau_hours = 18.0;
  // Total modelled duration.
  double total_hours = 72.0;
};

// Integral over [0, hours] of the storm's relative intensity (0..1: a
// linear ramp over the onset, a flat main phase, exponential recovery,
// zero after total_hours), in "peak-equivalent hours" — the damage dose
// accumulated so far.
double storm_dose_hours(const StormPhaseProfile& profile, double hours);

struct FailureTimePoint {
  double hours = 0.0;
  double expected_cables_failed = 0.0;
  double fraction_of_final = 0.0;  // of the end-state expected failures
};

// Time-resolved expected failures: the end-state per-cable death
// probability `p_c` (from the simulator + model) is spread over time as a
// proportional-hazard process — P_c(t) = 1 - (1-p_c)^(dose(t)/dose(total))
// — so every cable reaches exactly its end-state probability at the end of
// the storm, and the curve shows when the damage lands.
std::vector<FailureTimePoint> failure_time_series(
    const sim::FailureSimulator& simulator, const RepeaterFailureModel& model,
    const StormPhaseProfile& profile, double step_hours = 1.0);

// Fraction of the end-state damage already locked in by `hours` — e.g. if
// operators need 6 hours to finish shutting down after the commencement,
// this is the share of expected failures the delay costs them.
double damage_fraction_by(const StormPhaseProfile& profile, double hours);

// Mapping from an *observed* Kp index time series (datasets::space_weather)
// to the same cumulative-dose axis as damage_fraction_by. Kp at or below
// `quiet_kp` contributes nothing (Kp 5 is the G1 storm threshold);
// above it the instantaneous damage intensity scales as
// ((kp - quiet_kp) / (9 - quiet_kp))^2, super-linear because dB/dt — the
// GIC driver — grows much faster than Kp itself.
//
// Cumulative normalized damage dose over an observed Kp series: trapezoid
// integration of the intensity, divided by the total so the result is a
// non-decreasing share in [0, 1] with back() == 1.0 exactly — the shape
// sim::TimelineConfig requires. `hours` must be finite non-decreasing with
// >= 2 samples, `kp` the same size with values in [0, 9]. Throws
// util::Error(kInvalidArgument / kInvalidData) when the inputs are invalid
// (quiet_kp must be in [0, 9)) or when no interval rises above quiet_kp (an
// all-quiet series has no storm to normalize against).
std::vector<double> dose_share_from_kp(std::span<const double> hours,
                                       std::span<const double> kp,
                                       double quiet_kp = 5.0);

}  // namespace solarnet::gic
