// Statistics toolkit for the evaluation harness.
#pragma once

#include <cstdint>
#include <vector>

namespace ucr {

/// Single-pass running moments (Welford). Numerically stable; supports merge
/// so that per-run statistics can be combined across experiment shards.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::uint64_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance (n-1 denominator). Requires count() >= 2.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Descriptive summary of a sample (copies and sorts the data once).
struct Summary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  /// Half-width of the normal-approximation 95% confidence interval of the
  /// mean (1.96 * stddev / sqrt(n)); 0 when count < 2.
  double ci95_halfwidth = 0.0;
};

/// Builds a Summary from a sample. Empty input yields a zero Summary.
Summary summarize(const std::vector<double>& sample);

/// Linear-interpolation quantile of a *sorted* sample, q in [0,1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Exact histogram of a sample of non-negative integers (per-message
/// latencies): the multiset of values, without their order. Counts sit in
/// a dense array indexed by value, which grows on demand only while its
/// length stays <= max(64, count()); any value beyond it is kept raw in an
/// ascending overflow list (inserted in place; rising values, as in a
/// batch, append). So storage is O(count()) whatever the values' range —
/// never sized to a slot cap — and a run of small, repeated values costs
/// a few dense words instead of one word per sample.
class LatencyHistogram {
 public:
  void add(std::uint64_t value);
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Calls f(value, count) once per distinct value, in ascending value
  /// order: replaying it expands to the sorted sample.
  template <typename F>
  void for_each(F&& f) const {
    visit([&f](std::uint64_t value, std::uint64_t count) {
      f(value, count);
      return true;
    });
  }

  /// The double quantile_sorted returns on the expanded, sorted sample
  /// (bit for bit: the same interpolation over the same order
  /// statistics, read off cumulative counts). Requires count() > 0.
  double quantile(double q) const;

 private:
  /// for_each that stops once f returns false.
  template <typename F>
  void visit(F&& f) const;

  std::vector<std::uint64_t> dense_;     // dense_[v] = occurrences of v
  std::vector<std::uint64_t> overflow_;  // ascending; past dense_ when added
  std::uint64_t count_ = 0;
};

template <typename F>
void LatencyHistogram::visit(F&& f) const {
  // The dense counts merged with the overflow: an overflowed value may lie
  // below a range the dense array reached later.
  std::size_t o = 0;
  const auto overflow_run = [this, &o](std::uint64_t value) {
    std::uint64_t run = 0;
    for (; o < overflow_.size() && overflow_[o] == value; ++o) ++run;
    return run;
  };
  for (std::uint64_t value = 0; value < dense_.size(); ++value) {
    const std::uint64_t count = dense_[value] + overflow_run(value);
    if (count != 0 && !f(value, count)) return;
  }
  while (o < overflow_.size()) {
    const std::uint64_t value = overflow_[o];
    if (!f(value, overflow_run(value))) return;
  }
}

/// Pearson chi-square statistic for observed vs expected counts.
/// Bins with expected < 1e-12 must have observed == 0 (checked).
double chi_square_statistic(const std::vector<double>& observed,
                            const std::vector<double>& expected);

/// Jain's fairness index (sum x)^2 / (n * sum x^2) in (0, 1]; 1 = perfectly
/// even. Used on per-message latencies in the dynamic-arrival experiments.
/// Requires a non-empty sample with non-negative values and positive sum.
double jain_fairness_index(const std::vector<double>& sample);

}  // namespace ucr
