// The multiset of per-message latencies a run recorded, in a form tests
// compare with EXPECT_EQ and print on failure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace ucr::testutil {

/// Ascending (value, count) pairs.
using LatencyRuns = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// The pairs a histogram replays: equal for two histograms of the same
/// multiset, whatever their dense/overflow layout.
inline LatencyRuns latency_runs(const LatencyHistogram& histogram) {
  LatencyRuns runs;
  histogram.for_each([&runs](std::uint64_t value, std::uint64_t count) {
    runs.emplace_back(value, count);
  });
  return runs;
}

/// The pairs of a per-message latency sequence, counted from a sorted
/// copy (independently of LatencyHistogram).
inline LatencyRuns latency_runs(std::vector<std::uint64_t> latencies) {
  std::sort(latencies.begin(), latencies.end());
  LatencyRuns runs;
  for (const std::uint64_t value : latencies) {
    if (runs.empty() || runs.back().first != value) {
      runs.emplace_back(value, 0);
    }
    ++runs.back().second;
  }
  return runs;
}

}  // namespace ucr::testutil
