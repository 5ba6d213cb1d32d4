#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace solarnet::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  // Clamp m2_: rounding in add/merge can leave it a hair below zero for
  // near-constant inputs, and sqrt of that would surface NaN sd columns.
  return n_ >= 2 ? std::max(m2_, 0.0) / static_cast<double>(n_) : 0.0;
}

double RunningStats::sample_variance() const noexcept {
  return n_ >= 2 ? std::max(m2_, 0.0) / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::sample_stddev() const noexcept {
  return std::sqrt(sample_variance());
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double quantile(std::span<const double> sorted_values, double q) {
  if (sorted_values.empty()) {
    throw std::invalid_argument("quantile: empty input");
  }
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile: q outside [0, 1]");
  }
  const double pos = q * static_cast<double>(sorted_values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_values.size()) return sorted_values.back();
  return sorted_values[lo] * (1.0 - frac) + sorted_values[lo + 1] * frac;
}

namespace {

// Shared finiteness gate for the copying statistics entry points. NaN in a
// std::sort violates strict weak ordering (undefined behavior), and any
// non-finite value makes the result meaningless — reject with the index so
// the caller can find the bad sample.
void require_finite(std::span<const double> values, const char* function) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      throw std::invalid_argument(std::string(function) +
                                  ": non-finite value at index " +
                                  std::to_string(i));
    }
  }
}

}  // namespace

double quantile_unsorted(std::span<const double> values, double q) {
  require_finite(values, "quantile_unsorted");
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return quantile(copy, q);
}

double mean(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("mean: empty input");
  require_finite(values, "mean");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi <= lo");
  if (bins == 0) throw std::invalid_argument("Histogram: zero bins");
  counts_.assign(bins, 0.0);
}

std::size_t Histogram::bin_index(double x) const noexcept {
  if (x <= lo_) return 0;
  if (x >= hi_) return counts_.size() - 1;
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  return std::min(idx, counts_.size() - 1);
}

void Histogram::add(double x, double weight) {
  if (!std::isfinite(x) || !std::isfinite(weight)) {
    throw std::invalid_argument("Histogram::add: non-finite input");
  }
  counts_[bin_index(x)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_center(std::size_t i) const {
  return bin_lo(i) + width_ / 2.0;
}

std::vector<double> Histogram::density() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ <= 0.0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i] / total_ / width_;
  }
  return out;
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(sorted.size());
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    // Collapse runs of equal values into one step at the run's end.
    if (!cdf.empty() && cdf.back().value == sorted[i]) {
      cdf.back().cum_fraction = static_cast<double>(i + 1) / n;
    } else {
      cdf.push_back({sorted[i], static_cast<double>(i + 1) / n});
    }
  }
  return cdf;
}

double cdf_at(std::span<const CdfPoint> cdf, double x) {
  if (cdf.empty()) return 0.0;
  // Find the last point with value <= x.
  auto it = std::upper_bound(
      cdf.begin(), cdf.end(), x,
      [](double lhs, const CdfPoint& p) { return lhs < p.value; });
  if (it == cdf.begin()) return 0.0;
  return std::prev(it)->cum_fraction;
}

}  // namespace solarnet::util
