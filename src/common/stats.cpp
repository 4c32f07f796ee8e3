#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace ucr {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::mean() const {
  UCR_REQUIRE(count_ > 0, "mean of empty sample");
  return mean_;
}

double RunningStats::variance() const {
  UCR_REQUIRE(count_ >= 2, "variance requires at least two samples");
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  UCR_REQUIRE(count_ > 0, "min of empty sample");
  return min_;
}

double RunningStats::max() const {
  UCR_REQUIRE(count_ > 0, "max of empty sample");
  return max_;
}

namespace {

/// The one interpolation rule of every quantile here: order statistics
/// lo = floor(q * (n - 1)) and hi = min(lo + 1, n - 1) of a sample of n,
/// read through `order_statistics(lo, hi)` -> {v(lo), v(hi)}, blended by
/// the fractional part. Sharing it is what makes LatencyHistogram::
/// quantile and quantile_sorted agree bit for bit.
template <typename OrderStatistics>
double interpolated_quantile(std::uint64_t n, double q,
                             OrderStatistics&& order_statistics) {
  UCR_REQUIRE(n > 0, "quantile of empty sample");
  UCR_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order out of range");
  if (n == 1) return order_statistics(0, 0).first;
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  const auto [v_lo, v_hi] = order_statistics(lo, hi);
  return v_lo * (1.0 - frac) + v_hi * frac;
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  return interpolated_quantile(
      sorted.size(), q, [&sorted](std::uint64_t lo, std::uint64_t hi) {
        return std::pair<double, double>{sorted[lo], sorted[hi]};
      });
}

void LatencyHistogram::add(std::uint64_t value) {
  ++count_;
  if (value >= dense_.size()) {
    const std::uint64_t bound = std::max<std::uint64_t>(64, count_);
    if (value >= bound) {
      overflow_.insert(
          std::upper_bound(overflow_.begin(), overflow_.end(), value), value);
      return;
    }
    // Geometric growth keeps a rising run of values amortized O(1).
    dense_.resize(std::min(
        bound, std::max<std::uint64_t>(value + 1, 2 * dense_.size())));
  }
  ++dense_[value];
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  UCR_REQUIRE(&other != this, "a histogram cannot absorb itself");
  // Each side's dense length is <= max(64, its count), so the longer one
  // stays within the merged bound.
  if (other.dense_.size() > dense_.size()) dense_.resize(other.dense_.size());
  for (std::size_t v = 0; v < other.dense_.size(); ++v) {
    dense_[v] += other.dense_[v];
  }
  count_ += other.count_;
  // Merge the two ascending overflow lists; the prefix the merged dense
  // range now covers moves into it.
  const auto middle = static_cast<std::ptrdiff_t>(overflow_.size());
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  std::inplace_merge(overflow_.begin(), overflow_.begin() + middle,
                     overflow_.end());
  const auto covered =
      std::lower_bound(overflow_.begin(), overflow_.end(), dense_.size());
  for (auto it = overflow_.begin(); it != covered; ++it) ++dense_[*it];
  overflow_.erase(overflow_.begin(), covered);
}

double LatencyHistogram::quantile(double q) const {
  return interpolated_quantile(
      count_, q, [this](std::uint64_t lo, std::uint64_t hi) {
        // v(rank) is the value whose cumulative counts span rank: the
        // last one reached with fewer than rank + 1 values before it. The
        // walk stops at v(hi).
        double v_lo = 0.0;
        double v_hi = 0.0;
        std::uint64_t before = 0;
        visit([&](std::uint64_t value, std::uint64_t count) {
          if (before <= lo) v_lo = static_cast<double>(value);
          v_hi = static_cast<double>(value);
          before += count;
          return before <= hi;
        });
        return std::pair<double, double>{v_lo, v_hi};
      });
}

Summary summarize(const std::vector<double>& sample) {
  Summary s;
  if (sample.empty()) return s;
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());

  RunningStats rs;
  for (double x : sorted) rs.add(x);

  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.count() >= 2 ? rs.stddev() : 0.0;
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.50);
  s.p75 = quantile_sorted(sorted, 0.75);
  s.p95 = quantile_sorted(sorted, 0.95);
  if (s.count >= 2) {
    s.ci95_halfwidth =
        1.96 * s.stddev / std::sqrt(static_cast<double>(s.count));
  }
  return s;
}

double jain_fairness_index(const std::vector<double>& sample) {
  UCR_REQUIRE(!sample.empty(), "fairness index of empty sample");
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : sample) {
    UCR_REQUIRE(x >= 0.0, "fairness index requires non-negative values");
    sum += x;
    sum_sq += x * x;
  }
  UCR_REQUIRE(sum > 0.0, "fairness index requires a positive total");
  return sum * sum / (static_cast<double>(sample.size()) * sum_sq);
}

double chi_square_statistic(const std::vector<double>& observed,
                            const std::vector<double>& expected) {
  UCR_REQUIRE(observed.size() == expected.size(),
              "chi-square requires equally sized vectors");
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] < 1e-12) {
      UCR_REQUIRE(observed[i] == 0.0,
                  "observed mass in a bin with (near-)zero expectation");
      continue;
    }
    const double d = observed[i] - expected[i];
    stat += d * d / expected[i];
  }
  return stat;
}

}  // namespace ucr
