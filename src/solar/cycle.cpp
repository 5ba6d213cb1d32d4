#include "solar/cycle.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace solarnet::solar {

namespace {
constexpr double kSchwabePeriodYears = 11.0;  // the sunspot cycle
constexpr double kGleissbergPeriodYears = 88.0;
// Reference epoch: cycle 24 minimum (December 2019) sits near a
// Gleissberg minimum per Feynman & Ruzmaikin (2014).
constexpr double kReferenceMinimumYear = 2019.96;
// Peak smoothed sunspot number of an average cycle at Gleissberg maximum
// and minimum; cycle 24 peaked at ~116, strong cycles reach 210-260.
constexpr double kPeakSsnGleissbergMax = 230.0;
constexpr double kPeakSsnGleissbergMin = 115.0;
// Fraction of direct impacts that reach Carrington scale; tuned so the
// per-decade Carrington probability spans the paper's 1.6 - 12% range as
// events_per_century sweeps its cited interval.
constexpr double kCarringtonFraction = 0.25;
}  // namespace

double cycle_phase(double year) noexcept {
  const double t = (year - kReferenceMinimumYear) / kSchwabePeriodYears;
  return t - std::floor(t);
}

double gleissberg_factor(double year) noexcept {
  // Cosine envelope with minimum at the reference epoch.
  const double t = (year - kReferenceMinimumYear) / kGleissbergPeriodYears;
  return 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * t));
}

double sunspot_number(double year) noexcept {
  // Within-cycle shape: asymmetric rise/decay approximated by sin^2 of the
  // phase (zero at minima, peak near phase 0.4).
  const double phase = cycle_phase(year);
  const double shape = std::pow(std::sin(std::numbers::pi * phase), 2.0);
  const double peak =
      kPeakSsnGleissbergMin +
      gleissberg_factor(year) * (kPeakSsnGleissbergMax - kPeakSsnGleissbergMin);
  return peak * shape;
}

double relative_event_rate(double year) noexcept {
  // Long-run mean of sin^2 is 1/2; of the Gleissberg envelope is 1/2.
  const double mean_peak =
      kPeakSsnGleissbergMin +
      0.5 * (kPeakSsnGleissbergMax - kPeakSsnGleissbergMin);
  const double mean_ssn = 0.5 * mean_peak;
  return mean_ssn > 0.0 ? sunspot_number(year) / mean_ssn : 0.0;
}

ExtremeEventRisk::ExtremeEventRisk(double events_per_century)
    : events_per_century_(events_per_century) {
  if (events_per_century_ < 0.0) {
    throw std::invalid_argument(
        "ExtremeEventRisk: events_per_century must be >= 0");
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
  const double base_rate = events_per_century_ / 100.0;  // per year
  double integral = 0.0;
  if (modulate) {
    // Trapezoidal integration of the modulated rate, monthly steps.
    const double step = 1.0 / 12.0;
    double t = 0.0;
    while (t < years) {
      const double dt = std::min(step, years - t);
      const double r0 = relative_event_rate(start_year + t);
      const double r1 = relative_event_rate(start_year + t + dt);
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
  const ExtremeEventRisk sub(events_per_century_ * kCarringtonFraction);
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
