#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace solarnet::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, EmptySurfacesEmptiness) {
  // min()/max() return a 0.0 sentinel when no sample was ever added —
  // callers must be able to tell that apart from a real observed 0.0, and
  // empty() is that signal.
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  s.add(-3.5);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.min(), -3.5);
  EXPECT_EQ(s.max(), -3.5);
  // Merging an empty accumulator into a non-empty one (and vice versa)
  // keeps emptiness truthful.
  RunningStats other;
  EXPECT_TRUE(other.empty());
  other.merge(s);
  EXPECT_FALSE(other.empty());
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

// Single-trial sweep points feed sd columns: every variance accessor must
// come back 0 (never NaN) below two samples, including after merges that
// land on n == 1.
TEST(RunningStats, FewerThanTwoSamplesNeverNaN) {
  for (const RunningStats& s : {[] { return RunningStats{}; }(),
                                [] {
                                  RunningStats one;
                                  one.add(3.25);
                                  return one;
                                }(),
                                [] {
                                  RunningStats merged;
                                  RunningStats one;
                                  one.add(-7.5);
                                  merged.merge(one);
                                  merged.merge(RunningStats{});
                                  return merged;
                                }()}) {
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sample_variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    EXPECT_EQ(s.sample_stddev(), 0.0);
    EXPECT_FALSE(std::isnan(s.stddev()));
    EXPECT_FALSE(std::isnan(s.sample_stddev()));
  }
}

// Near-constant inputs can round m2 to a hair below zero; the accessors
// must clamp instead of taking sqrt of a negative.
TEST(RunningStats, NearConstantInputsStayNonNegative) {
  RunningStats s;
  const double base = 1.0e15;
  for (int i = 0; i < 64; ++i) s.add(base + (i % 2 == 0 ? 0.125 : -0.125));
  EXPECT_GE(s.variance(), 0.0);
  EXPECT_GE(s.sample_variance(), 0.0);
  EXPECT_FALSE(std::isnan(s.stddev()));
  EXPECT_FALSE(std::isnan(s.sample_stddev()));
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);      // population
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

// Property tests for the parallel-reduction contract the Monte-Carlo engine
// relies on: any split of an add-stream, accumulated in halves and merged,
// must agree with the serial accumulator.
TEST(RunningStats, MergePropertySplitAtEveryPoint) {
  Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) {
    // Mix of scales so the Chan merge is exercised away from 0.
    values.push_back(rng.normal(5.0, 3.0) + (i % 7 == 0 ? 100.0 : 0.0));
  }
  RunningStats all;
  for (double x : values) all.add(x);
  for (std::size_t split = 0; split <= values.size(); ++split) {
    RunningStats left;
    RunningStats right;
    for (std::size_t i = 0; i < values.size(); ++i) {
      (i < split ? left : right).add(values[i]);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12 * std::abs(all.mean()) + 1e-12);
    EXPECT_NEAR(left.variance(), all.variance(),
                1e-12 * all.variance() + 1e-12);
    EXPECT_EQ(left.min(), all.min());
    EXPECT_EQ(left.max(), all.max());
  }
}

TEST(RunningStats, MergePropertyRandomChunking) {
  Rng rng(7);
  for (int round = 0; round < 25; ++round) {
    const std::size_t n = 1 + rng.uniform_below(300);
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) values.push_back(rng.uniform(-50.0, 50.0));
    RunningStats all;
    for (double x : values) all.add(x);
    // Accumulate in random-sized chunks, merged in order — the shape of the
    // engine's fixed-chunk reduction.
    RunningStats merged;
    std::size_t i = 0;
    while (i < n) {
      const std::size_t len = 1 + rng.uniform_below(32);
      RunningStats chunk;
      for (std::size_t j = i; j < std::min(i + len, n); ++j) chunk.add(values[j]);
      merged.merge(chunk);
      i += len;
    }
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_NEAR(merged.mean(), all.mean(),
                1e-12 * std::abs(all.mean()) + 1e-12);
    EXPECT_NEAR(merged.sample_variance(), all.sample_variance(),
                1e-12 * all.sample_variance() + 1e-12);
    EXPECT_EQ(merged.min(), all.min());
    EXPECT_EQ(merged.max(), all.max());
  }
}

TEST(RunningStats, MergeOfSingleChunkIntoEmptyIsExactCopy) {
  // run_trials relies on this for bit-identity with the old serial loop
  // whenever trials fit in one chunk.
  RunningStats chunk;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) chunk.add(rng.uniform());
  RunningStats agg;
  agg.merge(chunk);
  EXPECT_EQ(agg.count(), chunk.count());
  EXPECT_EQ(agg.mean(), chunk.mean());
  EXPECT_EQ(agg.variance(), chunk.variance());
  EXPECT_EQ(agg.min(), chunk.min());
  EXPECT_EQ(agg.max(), chunk.max());
}

TEST(Quantile, ExactOrderStatistics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 9.0);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  const std::vector<double> v = {1.0};
  EXPECT_THROW(quantile(v, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(v, 1.1), std::invalid_argument);
}

TEST(Quantile, UnsortedVariantSorts) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_unsorted(v, 0.5), 3.0);
}

TEST(Quantile, UnsortedRejectsNonFiniteWithIndex) {
  // NaN violates std::sort's strict-weak-ordering precondition (undefined
  // behavior), so the copying variant must reject it before sorting — and
  // name the offending index so the bad sample can be found.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_nan = {1.0, 2.0, nan, 4.0};
  try {
    quantile_unsorted(with_nan, 0.5);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("index 2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(quantile_unsorted(std::vector<double>{inf, 1.0}, 0.5),
               std::invalid_argument);
  EXPECT_THROW(quantile_unsorted(std::vector<double>{-inf}, 0.0),
               std::invalid_argument);
}

TEST(MeanMedian, MeanRejectsNonFiniteWithIndex) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v = {nan, 2.0};
  try {
    mean(v);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("index 0"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(mean(std::vector<double>{
                   1.0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
}

TEST(MeanMedian, Basics) {
  const std::vector<double> v = {1.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Histogram, BinsAndDensity) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
  h.add(1.0);
  h.add(3.0);
  h.add(3.5);
  h.add(9.9);
  const auto density = h.density();  // count / total / width
  EXPECT_DOUBLE_EQ(density[0], 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(density[1], 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(density[4], 1.0 / 8.0);
  // Density integrates to 1: sum(density * width) == 1.
  double integral = 0.0;
  for (double d : density) integral += d * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
  const auto density = h.density();
  EXPECT_DOUBLE_EQ(density[0], 0.25);
  EXPECT_DOUBLE_EQ(density[4], 0.25);
}

TEST(Histogram, WeightedMass) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 3.0);
  h.add(0.75, 1.0);
  const auto density = h.density();  // mass share / width 0.5
  EXPECT_DOUBLE_EQ(density[0], 1.5);
  EXPECT_DOUBLE_EQ(density[1], 0.5);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, RejectsNonFinite) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW(h.add(std::nan("")), std::invalid_argument);
  EXPECT_THROW(h.add(0.5, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Histogram, BinEdges) {
  Histogram h(-10.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), -10.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_center(1), -2.5);
  EXPECT_THROW(h.bin_lo(4), std::out_of_range);
}

TEST(EmpiricalCdf, StepsAndDuplicates) {
  const std::vector<double> v = {1.0, 2.0, 2.0, 3.0};
  const auto cdf = empirical_cdf(v);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].cum_fraction, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].value, 2.0);
  EXPECT_DOUBLE_EQ(cdf[1].cum_fraction, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].cum_fraction, 1.0);
}

TEST(EmpiricalCdf, EmptyInput) {
  EXPECT_TRUE(empirical_cdf({}).empty());
}

TEST(CdfAt, Evaluation) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const auto cdf = empirical_cdf(v);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf_at({}, 1.0), 0.0);
}

// Property-style sweep: quantile is monotone in q for arbitrary data.
class QuantileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotoneTest, MonotoneInQ) {
  std::vector<double> v;
  // Unsigned LCG: wraps mod 2^32 instead of overflowing a signed int.
  auto seed = static_cast<std::uint32_t>(GetParam());
  for (int i = 0; i < 50; ++i) {
    seed = seed * 1103515245u + 12345u;
    v.push_back(static_cast<double>(seed % 1000u));
  }
  std::sort(v.begin(), v.end());
  double prev = quantile(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile(v, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotoneTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace solarnet::util
