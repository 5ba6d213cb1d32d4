#include "solar/cycle.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace solarnet::solar {

SolarCycleModel::SolarCycleModel(CycleModelParams params) : params_(params) {
  if (params_.schwabe_period_years <= 0.0 ||
      params_.gleissberg_period_years <= 0.0) {
    throw std::invalid_argument("SolarCycleModel: periods must be positive");
  }
  if (params_.peak_ssn_gleissberg_max < params_.peak_ssn_gleissberg_min) {
    throw std::invalid_argument(
        "SolarCycleModel: Gleissberg max peak below min peak");
  }
}

double SolarCycleModel::cycle_phase(double year) const noexcept {
  const double t = (year - params_.reference_minimum_year) /
                   params_.schwabe_period_years;
  return t - std::floor(t);
}

double SolarCycleModel::gleissberg_factor(double year) const noexcept {
  // Cosine envelope with minimum at the reference epoch.
  const double t = (year - params_.reference_minimum_year) /
                   params_.gleissberg_period_years;
  return 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * t));
}

double SolarCycleModel::sunspot_number(double year) const noexcept {
  // Within-cycle shape: asymmetric rise/decay approximated by sin^2 of the
  // phase (zero at minima, peak near phase 0.4).
  const double phase = cycle_phase(year);
  const double shape = std::pow(std::sin(std::numbers::pi * phase), 2.0);
  const double peak =
      params_.peak_ssn_gleissberg_min +
      gleissberg_factor(year) *
          (params_.peak_ssn_gleissberg_max - params_.peak_ssn_gleissberg_min);
  return peak * shape;
}

double SolarCycleModel::relative_event_rate(double year) const noexcept {
  // Long-run mean of sin^2 is 1/2; of the Gleissberg envelope is 1/2.
  const double mean_peak = params_.peak_ssn_gleissberg_min +
                           0.5 * (params_.peak_ssn_gleissberg_max -
                                  params_.peak_ssn_gleissberg_min);
  const double mean_ssn = 0.5 * mean_peak;
  return mean_ssn > 0.0 ? sunspot_number(year) / mean_ssn : 0.0;
}

ExtremeEventRisk::ExtremeEventRisk(SolarCycleModel cycle,
                                   ExtremeEventRiskParams params)
    : cycle_(std::move(cycle)), params_(params) {
  if (params_.events_per_century < 0.0 || params_.carrington_fraction < 0.0 ||
      params_.carrington_fraction > 1.0) {
    throw std::invalid_argument("ExtremeEventRisk: invalid params");
  }
}

double ExtremeEventRisk::probability_of_event(double start_year, double years,
                                              bool modulate) const {
  if (!std::isfinite(start_year)) {
    throw std::invalid_argument("ExtremeEventRisk: start_year is not finite");
  }
  if (!std::isfinite(years)) {
    throw std::invalid_argument("ExtremeEventRisk: years is not finite");
  }
  if (years <= 0.0) return 0.0;
  const double base_rate = params_.events_per_century / 100.0;  // per year
  double integral = 0.0;
  if (modulate) {
    // Trapezoidal integration of the modulated rate, monthly steps.
    const double step = 1.0 / 12.0;
    double t = 0.0;
    while (t < years) {
      const double dt = std::min(step, years - t);
      const double r0 = cycle_.relative_event_rate(start_year + t);
      const double r1 = cycle_.relative_event_rate(start_year + t + dt);
      integral += base_rate * 0.5 * (r0 + r1) * dt;
      t += dt;
    }
  } else {
    integral = base_rate * years;
  }
  return 1.0 - std::exp(-integral);
}

double ExtremeEventRisk::probability_of_carrington(double start_year,
                                                   double years,
                                                   bool modulate) const {
  ExtremeEventRiskParams scaled = params_;
  scaled.events_per_century *= params_.carrington_fraction;
  const ExtremeEventRisk sub(cycle_, scaled);
  return sub.probability_of_event(start_year, years, modulate);
}

double ExtremeEventRisk::bernoulli_decade_probability(double once_in_years) {
  if (once_in_years <= 0.0) {
    throw std::invalid_argument(
        "bernoulli_decade_probability: non-positive period");
  }
  return 1.0 - std::pow(1.0 - 1.0 / once_in_years, 10.0);
}

}  // namespace solarnet::solar
