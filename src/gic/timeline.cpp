#include "gic/timeline.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/status.h"

namespace solarnet::gic {

namespace {

// Exponent of the Kp damage intensity (see dose_share_from_kp).
constexpr double kKpDoseExponent = 2.0;

void validate(const StormPhaseProfile& p) {
  if (p.onset_hours < 0.0 || p.main_phase_hours < 0.0 ||
      p.recovery_tau_hours <= 0.0 || p.total_hours <= 0.0) {
    throw std::invalid_argument("StormPhaseProfile: invalid values");
  }
}

}  // namespace

double storm_dose_hours(const StormPhaseProfile& profile, double hours) {
  validate(profile);
  hours = std::clamp(hours, 0.0, profile.total_hours);
  double dose = 0.0;
  // Onset triangle.
  const double onset = std::min(hours, profile.onset_hours);
  if (profile.onset_hours > 0.0) {
    dose += 0.5 * onset * onset / profile.onset_hours;
  }
  if (hours <= profile.onset_hours) return dose;
  // Main phase plateau.
  const double main_end = profile.onset_hours + profile.main_phase_hours;
  dose += std::min(hours, main_end) - profile.onset_hours;
  if (hours <= main_end) return dose;
  // Recovery exponential.
  dose += profile.recovery_tau_hours *
          (1.0 - std::exp(-(hours - main_end) / profile.recovery_tau_hours));
  return dose;
}

double damage_fraction_by(const StormPhaseProfile& profile, double hours) {
  const double total = storm_dose_hours(profile, profile.total_hours);
  if (total <= 0.0) return 0.0;
  return storm_dose_hours(profile, hours) / total;
}

std::vector<FailureTimePoint> failure_time_series(
    const sim::FailureSimulator& simulator, const RepeaterFailureModel& model,
    const StormPhaseProfile& profile, double step_hours) {
  validate(profile);
  if (step_hours <= 0.0) {
    throw std::invalid_argument("failure_time_series: bad step");
  }
  const topo::InfrastructureNetwork& net = simulator.network();
  std::vector<double> survival(net.cable_count(), 1.0);
  double final_expected = 0.0;
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const double p = simulator.cable_death_probability(c, model);
    survival[c] = 1.0 - p;
    final_expected += p;
  }

  std::vector<FailureTimePoint> series;
  for (double h = 0.0; h <= profile.total_hours + 1e-9; h += step_hours) {
    const double share = damage_fraction_by(profile, h);
    double expected = 0.0;
    for (topo::CableId c = 0; c < net.cable_count(); ++c) {
      // Proportional hazard: survival^share.
      expected += 1.0 - std::pow(survival[c], share);
    }
    series.push_back({h, expected,
                      final_expected > 0.0 ? expected / final_expected : 0.0});
  }
  return series;
}

std::vector<double> dose_share_from_kp(std::span<const double> hours,
                                       std::span<const double> kp,
                                       double quiet_kp) {
  const util::SourceContext ctx{"kp-series", 0, ""};
  if (!(quiet_kp >= 0.0 && quiet_kp < 9.0)) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "dose_share_from_kp: quiet_kp must be in [0, 9)",
                      {"kp-series", 0, "quiet_kp"});
  }
  if (hours.size() != kp.size()) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "dose_share_from_kp: hours/kp size mismatch", ctx);
  }
  if (hours.size() < 2) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "dose_share_from_kp: need >= 2 samples", ctx);
  }
  for (std::size_t i = 0; i < hours.size(); ++i) {
    if (!std::isfinite(hours[i]) || (i > 0 && hours[i] < hours[i - 1])) {
      throw util::Error(util::ErrorCode::kInvalidData,
                        "dose_share_from_kp: hours must be finite and "
                        "non-decreasing",
                        {"kp-series", i, "hours"});
    }
    if (!(kp[i] >= 0.0 && kp[i] <= 9.0)) {
      throw util::Error(util::ErrorCode::kInvalidData,
                        "dose_share_from_kp: Kp outside [0, 9]",
                        {"kp-series", i, "kp"});
    }
  }

  // Instantaneous intensity per sample, then trapezoid cumulative dose.
  const double span = 9.0 - quiet_kp;
  std::vector<double> dose(hours.size(), 0.0);
  double previous_intensity =
      std::pow(std::max(0.0, (kp[0] - quiet_kp) / span), kKpDoseExponent);
  for (std::size_t i = 1; i < hours.size(); ++i) {
    const double intensity =
        std::pow(std::max(0.0, (kp[i] - quiet_kp) / span), kKpDoseExponent);
    dose[i] = dose[i - 1] + 0.5 * (previous_intensity + intensity) *
                                (hours[i] - hours[i - 1]);
    previous_intensity = intensity;
  }
  const double total = dose.back();
  if (!(total > 0.0)) {
    throw util::Error(util::ErrorCode::kInvalidData,
                      "dose_share_from_kp: no interval above quiet_kp — "
                      "the series has no storm to normalize against",
                      {"kp-series", 0, "kp"});
  }
  for (double& d : dose) d /= total;
  dose.back() = 1.0;  // exact by construction (total/total); pin it anyway
  return dose;
}

}  // namespace solarnet::gic
