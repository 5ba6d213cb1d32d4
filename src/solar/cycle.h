// Solar activity model (§2 of the paper): the ~11-year sunspot cycle, the
// ~88-year Gleissberg modulation of cycle amplitude, and the resulting
// storm-occurrence statistics the paper quotes — 2.6-5.2 direct-impact
// events per century, 1.6-12% per-decade probability of a Carrington-scale
// event, and the ~4x swing of high-impact event frequency across the
// Gleissberg cycle.
#pragma once

namespace solarnet::solar {

// Deterministic mean-field solar activity model: an 11-year sunspot cycle
// under an 88-year Gleissberg envelope whose minimum is the cycle 24
// minimum (December 2019); an average cycle peaks at sunspot number 115 at
// Gleissberg minimum and 230 at maximum (constants in cycle.cpp).

// Phase in [0, 1) within the current 11-year cycle (0 = minimum).
double cycle_phase(double year) noexcept;
// Gleissberg amplitude factor in [0, 1] (0 = centennial minimum).
double gleissberg_factor(double year) noexcept;
// Expected smoothed sunspot number at `year` (>= 0).
double sunspot_number(double year) noexcept;
// Relative CME-event rate at `year`, normalized so the long-run average
// over a full Gleissberg cycle is 1. Tracks sunspot number (CMEs
// originate near sunspots, §2.3).
double relative_event_rate(double year) noexcept;

// Occurrence statistics under a (possibly modulated) Poisson model. A
// fixed quarter of direct impacts reach Carrington scale.
class ExtremeEventRisk {
 public:
  // `events_per_century` is the long-run rate of direct-impact extreme
  // events; the paper cites 2.6 - 5.2 (McCracken et al.). Throws
  // std::invalid_argument when it is negative.
  explicit ExtremeEventRisk(double events_per_century = 3.9);

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
  double events_per_century_;
};

}  // namespace solarnet::solar
