// Solar activity model (§2 of the paper): the ~11-year sunspot cycle, the
// ~88-year Gleissberg modulation of cycle amplitude, and the resulting
// storm-occurrence statistics the paper quotes — 2.6-5.2 direct-impact
// events per century, 1.6-12% per-decade probability of a Carrington-scale
// event, and the ~4x swing of high-impact event frequency across the
// Gleissberg cycle.
#pragma once

namespace solarnet::solar {

struct CycleModelParams {
  double schwabe_period_years = 11.0;   // the sunspot cycle
  double gleissberg_period_years = 88.0;
  // Reference epoch: cycle 24 minimum (December 2019) sits near a
  // Gleissberg minimum per Feynman & Ruzmaikin (2014).
  double reference_minimum_year = 2019.96;
  // Peak smoothed sunspot number of an average cycle at Gleissberg maximum
  // and minimum; cycle 24 peaked at ~116, strong cycles reach 210-260.
  double peak_ssn_gleissberg_max = 230.0;
  double peak_ssn_gleissberg_min = 115.0;
};

// Deterministic mean-field solar activity model.
class SolarCycleModel {
 public:
  explicit SolarCycleModel(CycleModelParams params = {});

  const CycleModelParams& params() const noexcept { return params_; }

  // Phase in [0, 1) within the current 11-year cycle (0 = minimum).
  double cycle_phase(double year) const noexcept;
  // Gleissberg amplitude factor in [0, 1] (0 = centennial minimum).
  double gleissberg_factor(double year) const noexcept;
  // Expected smoothed sunspot number at `year` (>= 0).
  double sunspot_number(double year) const noexcept;
  // Relative CME-event rate at `year`, normalized so the long-run average
  // over a full Gleissberg cycle is 1. Tracks sunspot number (CMEs
  // originate near sunspots, §2.3).
  double relative_event_rate(double year) const noexcept;

 private:
  CycleModelParams params_;
};

struct ExtremeEventRiskParams {
  // Long-run rate of direct-impact extreme events per century; the paper
  // cites 2.6 - 5.2 (McCracken et al.).
  double events_per_century = 3.9;
  // Fraction of direct impacts that reach Carrington scale; tuned so the
  // per-decade Carrington probability spans the paper's 1.6 - 12% range as
  // events_per_century sweeps its cited interval.
  double carrington_fraction = 0.25;
};

// Occurrence statistics under a (possibly modulated) Poisson model.
class ExtremeEventRisk {
 public:
  ExtremeEventRisk(SolarCycleModel cycle, ExtremeEventRiskParams params = {});

  // P(at least one direct-impact event in [start_year, start_year+years)),
  // integrating the cycle-modulated rate in monthly steps. Homogeneous when
  // modulate=false. Throws std::invalid_argument on a non-finite input.
  double probability_of_event(double start_year, double years,
                              bool modulate = true) const;
  // Same for Carrington-scale events only.
  double probability_of_carrington(double start_year, double years,
                                   bool modulate = true) const;

  // The paper's sanity check: a once-in-N-years event has probability
  // 1 - (1-1/N)^10 per decade under an independent Bernoulli-per-year
  // model (9% for N=100).
  static double bernoulli_decade_probability(double once_in_years);

 private:
  SolarCycleModel cycle_;
  ExtremeEventRiskParams params_;
};

}  // namespace solarnet::solar
