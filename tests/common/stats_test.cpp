#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tests/common/latency_runs.hpp"

namespace ucr {
namespace {

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
  EXPECT_THROW(s.max(), ContractViolation);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_THROW(s.variance(), ContractViolation);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSinglePass) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0 + i;
    all.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(QuantileSorted, Interpolation) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 25.0);
  EXPECT_NEAR(quantile_sorted(v, 1.0 / 3.0), 20.0, 1e-12);
  EXPECT_THROW(quantile_sorted({}, 0.5), ContractViolation);
  EXPECT_THROW(quantile_sorted(v, 1.5), ContractViolation);
}

TEST(QuantileSorted, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile_sorted({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile_sorted({7.0}, 0.99), 7.0);
}

/// Checks `h` against the sample it was fed: the ascending replay is the
/// sorted sample, and every quantile is bit-identical to quantile_sorted
/// on it.
void expect_matches_sample(const LatencyHistogram& h,
                           std::vector<std::uint64_t> sample) {
  std::sort(sample.begin(), sample.end());
  ASSERT_EQ(h.count(), sample.size());
  std::vector<std::uint64_t> replay;
  h.for_each([&replay](std::uint64_t value, std::uint64_t count) {
    EXPECT_GT(count, 0u);
    EXPECT_TRUE(replay.empty() || replay.back() < value) << value;
    replay.insert(replay.end(), count, value);
  });
  ASSERT_EQ(replay, sample);
  const std::vector<double> sorted(sample.begin(), sample.end());
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(h.quantile(q)),
              std::bit_cast<std::uint64_t>(quantile_sorted(sorted, q)))
        << "q = " << q << ": " << h.quantile(q) << " vs "
        << quantile_sorted(sorted, q);
  }
}

LatencyHistogram histogram_of(const std::vector<std::uint64_t>& sample) {
  LatencyHistogram h;
  for (const std::uint64_t v : sample) h.add(v);
  return h;
}

TEST(LatencyHistogram, EmptyHasNoQuantile) {
  const LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  h.for_each([](std::uint64_t, std::uint64_t) { ADD_FAILURE(); });
  EXPECT_THROW((void)h.quantile(0.5), ContractViolation);
  LatencyHistogram merged;
  merged.merge(h);
  EXPECT_TRUE(merged.empty());
  EXPECT_TRUE(testutil::latency_runs(merged).empty());
}

TEST(LatencyHistogram, MatchesQuantileSorted) {
  const std::vector<std::vector<std::uint64_t>> samples{
      {7},                                      // n = 1
      {0},                                      // n = 1, value 0
      {1'000'000'007},                          // n = 1, overflowed
      std::vector<std::uint64_t>(50, 12),       // all equal, dense
      std::vector<std::uint64_t>(50, 90'000),   // all equal, overflowed
      {63, 64, 65, 63, 64, 65},                 // around the first bound
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 300},  // rising, then a tail
  };
  for (const auto& sample : samples) {
    SCOPED_TRACE(sample.size());
    expect_matches_sample(histogram_of(sample), sample);
  }
}

TEST(LatencyHistogram, ValuesAtTheDenseBound) {
  // Length <= max(64, count): with n samples recorded, value n - 1 still
  // fits the dense array and value n does not.
  std::vector<std::uint64_t> sample;
  for (std::uint64_t v = 0; v < 200; ++v) sample.push_back(v);
  sample.push_back(200);  // count 201 now: fits exactly
  sample.push_back(203);  // count 202: overflows
  sample.push_back(63);
  sample.push_back(64);
  expect_matches_sample(histogram_of(sample), sample);
  // A strictly rising run that always lands on the bound.
  std::vector<std::uint64_t> rising;
  for (std::uint64_t v = 64; v < 5000; ++v) rising.push_back(v);
  expect_matches_sample(histogram_of(rising), rising);
}

TEST(LatencyHistogram, EarlyLargeValuesBelowTheLaterDenseRange) {
  // The first values overflow (dense bound 64); many small ones then grow
  // the dense range past them. Order statistics must interleave the two
  // parts, not treat the overflow as a tail above the dense range.
  std::vector<std::uint64_t> sample{900, 500, 1200, 70};
  for (std::uint64_t i = 0; i < 4000; ++i) sample.push_back(i % 1500);
  expect_matches_sample(histogram_of(sample), sample);
  // The same when most of the mass sits between overflowed values.
  std::vector<std::uint64_t> skewed{300, 100, 100, 5000};
  for (std::uint64_t i = 0; i < 400; ++i) skewed.push_back(150 + i % 7);
  expect_matches_sample(histogram_of(skewed), skewed);
}

TEST(LatencyHistogram, MergesRunsWithDifferentDenseExtents) {
  Xoshiro256 rng(20261020);
  // Short small-valued runs, a long rising run, a run of large values and
  // spread-out ones: dense extents from 64 to 3000, overflowed values
  // that arrived rising and out of order, all meet in the merge.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> shapes{
      {10, 8}, {3000, 0}, {5, 100'000}, {2000, 40}, {1, 7}, {500, 9000}};
  std::vector<std::vector<std::uint64_t>> runs;
  for (const auto& [n, range] : shapes) {
    std::vector<std::uint64_t> run;
    for (std::uint64_t i = 0; i < n; ++i) {
      run.push_back(range == 0 ? i + 1 : 1 + rng.next_below(range));
    }
    runs.push_back(std::move(run));
  }
  std::vector<std::uint64_t> pooled;
  LatencyHistogram merged;
  for (const auto& run : runs) {
    const LatencyHistogram h = histogram_of(run);
    expect_matches_sample(h, run);
    merged.merge(h);
    pooled.insert(pooled.end(), run.begin(), run.end());
    expect_matches_sample(merged, pooled);
  }
  // The histogram is a multiset: merge order and storage layout do not
  // matter to equality, one extra value does.
  LatencyHistogram reversed;
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    reversed.merge(histogram_of(*it));
  }
  EXPECT_EQ(testutil::latency_runs(reversed), testutil::latency_runs(merged));
  EXPECT_EQ(testutil::latency_runs(histogram_of(pooled)),
            testutil::latency_runs(merged));
  reversed.add(5);
  EXPECT_NE(testutil::latency_runs(reversed), testutil::latency_runs(merged));
}

TEST(LatencyHistogram, RandomSamplesMatchQuantileSorted) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t n = 1 + rng.next_below(trial < 100 ? 40 : 3000);
    const std::uint64_t range = 1 + rng.next_below(trial % 2 == 0 ? 100
                                                                  : 100'000);
    std::vector<std::uint64_t> sample;
    for (std::uint64_t i = 0; i < n; ++i) {
      sample.push_back(rng.next_below(range));
    }
    SCOPED_TRACE(trial);
    expect_matches_sample(histogram_of(sample), sample);
  }
}

TEST(Summarize, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, UnsortedInputHandled) {
  const Summary s = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_GT(s.ci95_halfwidth, 0.0);
}

TEST(Summarize, SingleValueHasZeroSpread) {
  const Summary s = summarize({9.0});
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 9.0);
}

TEST(ChiSquare, ZeroWhenObservedEqualsExpected) {
  EXPECT_DOUBLE_EQ(
      chi_square_statistic({10.0, 20.0, 30.0}, {10.0, 20.0, 30.0}), 0.0);
}

TEST(ChiSquare, KnownValue) {
  // ((12-10)^2)/10 + ((8-10)^2)/10 = 0.8
  EXPECT_NEAR(chi_square_statistic({12.0, 8.0}, {10.0, 10.0}), 0.8, 1e-12);
}

TEST(ChiSquare, RejectsMassInZeroBin) {
  EXPECT_THROW(chi_square_statistic({1.0}, {0.0}), ContractViolation);
  EXPECT_NO_THROW(chi_square_statistic({0.0}, {0.0}));
}

TEST(ChiSquare, RejectsSizeMismatch) {
  EXPECT_THROW(chi_square_statistic({1.0, 2.0}, {1.0}), ContractViolation);
}

TEST(JainIndex, OneForUniformSample) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({3.0}), 1.0);
}

TEST(JainIndex, OneOverNForSingleWinner) {
  // All mass on one element: index = 1/n.
  EXPECT_NEAR(jain_fairness_index({10.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainIndex, KnownMixedValue) {
  // x = {1, 3}: (4)^2 / (2 * 10) = 0.8.
  EXPECT_NEAR(jain_fairness_index({1.0, 3.0}), 0.8, 1e-12);
}

TEST(JainIndex, Contracts) {
  EXPECT_THROW(jain_fairness_index({}), ContractViolation);
  EXPECT_THROW(jain_fairness_index({1.0, -0.5}), ContractViolation);
  EXPECT_THROW(jain_fairness_index({0.0, 0.0}), ContractViolation);
}

}  // namespace
}  // namespace ucr
