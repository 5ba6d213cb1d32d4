// Descriptive statistics used across the analysis layer: running moments,
// quantiles, histograms, and empirical PDF/CDF construction. These are the
// numeric primitives behind every figure the library regenerates.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace solarnet::util {

// Welford online mean/variance accumulator. Numerically stable; O(1) space.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  // True when no sample has been added. Callers that render statistics
  // must check this: every accessor below returns 0.0 for an empty
  // accumulator (a sentinel, not a measurement), and printing that 0.0 as
  // if it were an observed min/max/mean silently fabricates data. The
  // report layer prints "n/a" instead.
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  // Population variance (divide by n). Zero when fewer than two samples.
  double variance() const noexcept;
  // Sample variance (divide by n-1). Zero when fewer than two samples.
  double sample_variance() const noexcept;
  double stddev() const noexcept;
  double sample_stddev() const noexcept;
  // 0.0 when empty — check empty() before treating these as observations.
  double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return n_ > 0 ? max_ : 0.0; }

  // Merges another accumulator (parallel Welford/Chan formula).
  void merge(const RunningStats& other) noexcept;

  // The accumulator's exact internal state, for checkpoint persistence
  // (util/checkpoint.h). A round-trip through State is bit-exact: the
  // restored accumulator adds/merges identically to the original.
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  State state() const noexcept { return {n_, mean_, m2_, min_, max_}; }
  static RunningStats from_state(const State& s) noexcept {
    RunningStats r;
    r.n_ = s.n;
    r.mean_ = s.mean;
    r.m2_ = s.m2;
    r.min_ = s.min;
    r.max_ = s.max;
    return r;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Quantile with linear interpolation between order statistics (the common
// "type 7" definition, matching numpy's default). `q` in [0, 1].
// Throws std::invalid_argument on empty input or q outside [0, 1].
double quantile(std::span<const double> sorted_values, double q);

// Convenience: copies, sorts, then computes the quantile. Rejects
// non-finite values (std::invalid_argument naming the offending index):
// NaN breaks std::sort's strict-weak-ordering precondition — undefined
// behavior, not just a wrong quantile — and an Inf endpoint turns the
// interpolation into NaN.
double quantile_unsorted(std::span<const double> values, double q);

// Arithmetic mean. Throws std::invalid_argument on empty input or (with
// the offending index) on non-finite values, which would silently poison
// the sum.
double mean(std::span<const double> values);

// A fixed-width binned histogram over [lo, hi). Values outside the range are
// clamped into the first/last bin so mass is never silently dropped.
class Histogram {
 public:
  // Requires hi > lo and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  std::size_t bin_count() const noexcept { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_center(std::size_t i) const;
  double total() const noexcept { return total_; }
  double bin_width() const noexcept { return width_; }

  // Probability density per bin: share of total mass divided by bin width.
  // Zero everywhere when no mass has been added.
  std::vector<double> density() const;

 private:
  std::size_t bin_index(double x) const noexcept;

  double lo_;
  double hi_;
  double width_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

// One point of an empirical CDF: P(X <= value) = cum_fraction.
struct CdfPoint {
  double value;
  double cum_fraction;
};

// Builds the empirical CDF of `values` (every distinct value becomes a
// step). Returns an empty vector for empty input.
std::vector<CdfPoint> empirical_cdf(std::span<const double> values);

// Evaluates an empirical CDF (as returned above) at `x`.
double cdf_at(std::span<const CdfPoint> cdf, double x);

}  // namespace solarnet::util
