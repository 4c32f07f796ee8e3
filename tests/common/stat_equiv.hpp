// Shared statistical-equivalence checks between an exact engine and its
// batched fast path. Both batched-equivalence suites (fair-engine and
// per-node) compare independently seeded run ensembles of the same
// workload, so the check is Welch-style: means must agree within 4
// combined standard errors plus a small systematic allowance — wide
// enough for Monte-Carlo noise, tight enough that a modeling error in a
// stretch sampler (a missed collision class, a biased run length) fails
// deterministically at the shipped run counts.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace ucr::testutil {

inline double standard_error(const Summary& summary) {
  return summary.stddev / std::sqrt(static_cast<double>(summary.count));
}

/// Mean and median makespan of the two ensembles agree within
/// 4 * combined SE + systematic_frac * exact mean (the median gets twice
/// the tolerance: its standard error is within a small factor of the
/// mean's for these unimodal makespan distributions). `systematic_frac`
/// is 0.02 by default; sparse-window regimes with fewer runs use 0.03.
inline void expect_makespan_agreement(const AggregateResult& exact,
                                      const AggregateResult& batched,
                                      const std::string& label,
                                      double systematic_frac = 0.02) {
  ASSERT_EQ(exact.incomplete_runs, 0u) << label;
  ASSERT_EQ(batched.incomplete_runs, 0u) << label;
  const double tol =
      4.0 * std::hypot(standard_error(exact.makespan),
                       standard_error(batched.makespan)) +
      systematic_frac * exact.makespan.mean;
  EXPECT_NEAR(exact.makespan.mean, batched.makespan.mean, tol)
      << label << ": exact=" << exact.makespan.mean
      << " batched=" << batched.makespan.mean;
  EXPECT_NEAR(exact.makespan.median, batched.makespan.median, 2.0 * tol)
      << label << ": exact median=" << exact.makespan.median
      << " batched median=" << batched.makespan.median;
}

inline Summary collision_summary(const AggregateResult& result) {
  std::vector<double> values;
  values.reserve(result.details.size());
  for (const auto& run : result.details) {
    values.push_back(static_cast<double>(run.collision_slots));
  }
  return summarize(values);
}

/// Mean collision-slot counts agree within 4 * combined SE + 5% + 2
/// slots. Collisions are the protocol-dynamics-sensitive outcome that a
/// makespan dominated by the arrival span would not catch; the additive
/// 2 covers near-zero collision counts where a relative allowance
/// vanishes.
inline void expect_collision_agreement(const AggregateResult& exact,
                                       const AggregateResult& batched,
                                       const std::string& label) {
  const Summary exact_coll = collision_summary(exact);
  const Summary batched_coll = collision_summary(batched);
  const double tol = 4.0 * std::hypot(standard_error(exact_coll),
                                      standard_error(batched_coll)) +
                     0.05 * exact_coll.mean + 2.0;
  EXPECT_NEAR(exact_coll.mean, batched_coll.mean, tol)
      << label << ": exact collisions=" << exact_coll.mean
      << " batched collisions=" << batched_coll.mean;
}

/// Per-run quantile of the per-message latency distribution, summarized
/// across runs. Requires the ensemble to have been run with
/// EngineOptions::record_latencies (RunMetrics::latency_histogram is
/// empty otherwise and the returned summary has count 0).
inline Summary latency_quantile_summary(const AggregateResult& result,
                                        double q) {
  std::vector<double> values;
  values.reserve(result.details.size());
  for (const auto& run : result.details) {
    if (run.latency_histogram.empty()) continue;
    values.push_back(run.latency_histogram.quantile(q));
  }
  return summarize(values);
}

/// Per-message timing agreement: the per-run latency p50 and p95 means of
/// the two ensembles agree within 4 * combined SE + 3% + 2 slots.
/// Makespan catches only the last delivery and collisions only the
/// contention envelope — a stretch sampler that displaced deliveries
/// *within* runs (per-message timing skew from slot skipping) could pass
/// both while shifting every latency; the percentile check closes that
/// hole. The additive 2 covers near-instant-delivery cells where a
/// relative allowance vanishes.
inline void expect_latency_agreement(const AggregateResult& exact,
                                     const AggregateResult& batched,
                                     const std::string& label) {
  for (const double q : {0.5, 0.95}) {
    const Summary exact_lat = latency_quantile_summary(exact, q);
    const Summary batched_lat = latency_quantile_summary(batched, q);
    ASSERT_GT(exact_lat.count, 0u)
        << label << ": exact ensemble recorded no latencies (missing "
        << "EngineOptions::record_latencies?)";
    ASSERT_GT(batched_lat.count, 0u)
        << label << ": batched ensemble recorded no latencies (missing "
        << "EngineOptions::record_latencies?)";
    const double tol = 4.0 * std::hypot(standard_error(exact_lat),
                                        standard_error(batched_lat)) +
                       0.03 * exact_lat.mean + 2.0;
    EXPECT_NEAR(exact_lat.mean, batched_lat.mean, tol)
        << label << ": latency p" << static_cast<int>(q * 100)
        << " exact=" << exact_lat.mean << " batched=" << batched_lat.mean;
  }
}

/// The full check used by the per-node suite: makespan plus collisions,
/// plus latency percentiles when both ensembles recorded latencies.
inline void expect_statistical_agreement(const AggregateResult& exact,
                                         const AggregateResult& batched,
                                         const std::string& label,
                                         double systematic_frac = 0.02) {
  expect_makespan_agreement(exact, batched, label, systematic_frac);
  expect_collision_agreement(exact, batched, label);
  if (latency_quantile_summary(exact, 0.5).count > 0 &&
      latency_quantile_summary(batched, 0.5).count > 0) {
    expect_latency_agreement(exact, batched, label);
  }
}

}  // namespace ucr::testutil
