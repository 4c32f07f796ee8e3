#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/one_fail_adaptive.hpp"
#include "protocols/known_k.hpp"

namespace ucr {
namespace {

TEST(PaperKSweep, PowersOfTen) {
  const auto ks = paper_k_sweep(100000);
  const std::vector<std::uint64_t> expected{10, 100, 1000, 10000, 100000};
  EXPECT_EQ(ks, expected);
}

TEST(PaperKSweep, NonPowerEndpointIncluded) {
  const auto ks = paper_k_sweep(50000);
  const std::vector<std::uint64_t> expected{10, 100, 1000, 10000, 50000};
  EXPECT_EQ(ks, expected);
}

TEST(PaperKSweep, MinimumSweep) {
  const auto ks = paper_k_sweep(10);
  EXPECT_EQ(ks, std::vector<std::uint64_t>{10});
  EXPECT_THROW(paper_k_sweep(9), ContractViolation);
}

TEST(RunFairExperiment, AggregatesRuns) {
  const auto factory = make_known_k_factory();
  const AggregateResult res = run_fair_experiment(factory, 50, 8, 77, {});
  EXPECT_EQ(res.k, 50u);
  EXPECT_EQ(res.runs, 8u);
  EXPECT_EQ(res.incomplete_runs, 0u);
  EXPECT_EQ(res.details.size(), 8u);
  EXPECT_GT(res.makespan.mean, 0.0);
  EXPECT_NEAR(res.ratio.mean, res.makespan.mean / 50.0, 1e-9);
  for (const auto& run : res.details) {
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.deliveries, 50u);
  }
}

TEST(RunFairExperiment, DeterministicForSameSeed) {
  const auto factory = make_one_fail_factory();
  const AggregateResult a = run_fair_experiment(factory, 100, 3, 5, {});
  const AggregateResult b = run_fair_experiment(factory, 100, 3, 5, {});
  ASSERT_EQ(a.details.size(), b.details.size());
  for (std::size_t i = 0; i < a.details.size(); ++i) {
    EXPECT_EQ(a.details[i].slots, b.details[i].slots);
  }
}

TEST(RunFairExperiment, DifferentSeedsDiffer) {
  const auto factory = make_one_fail_factory();
  const AggregateResult a = run_fair_experiment(factory, 200, 1, 5, {});
  const AggregateResult b = run_fair_experiment(factory, 200, 1, 6, {});
  EXPECT_NE(a.details[0].slots, b.details[0].slots);
}

TEST(RunFairExperiment, RunsUseIndependentStreams) {
  const auto factory = make_one_fail_factory();
  const AggregateResult res = run_fair_experiment(factory, 200, 4, 9, {});
  // Extremely unlikely that two independent runs coincide exactly.
  bool all_equal = true;
  for (std::size_t i = 1; i < res.details.size(); ++i) {
    if (res.details[i].slots != res.details[0].slots) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(RunFairExperiment, RequiresFairView) {
  ProtocolFactory broken;
  broken.name = "node-only";
  broken.node = [](std::uint64_t, Xoshiro256&) {
    return std::unique_ptr<NodeProtocol>(nullptr);
  };
  EXPECT_THROW(run_fair_experiment(broken, 10, 1, 1, {}), ContractViolation);
}

TEST(RunFairExperiment, RequiresPositiveRuns) {
  const auto factory = make_known_k_factory();
  EXPECT_THROW(run_fair_experiment(factory, 10, 0, 1, {}),
               ContractViolation);
}

TEST(RunNodeExperiment, WorksOnBatchedArrivals) {
  const auto factory = make_one_fail_factory();
  const AggregateResult res =
      run_node_experiment(factory, batched_arrivals(30), 3, 11, {});
  EXPECT_EQ(res.runs, 3u);
  EXPECT_EQ(res.incomplete_runs, 0u);
  for (const auto& run : res.details) {
    EXPECT_EQ(run.deliveries, 30u);
  }
}

TEST(AggregateRuns, PoolsLatencyPercentilesAcrossRuns) {
  // Two runs' latencies pool into one sample (1..20): linear-interpolated
  // percentiles p50 = 10.5, p95 = 19.05, p99 = 19.81.
  RunMetrics a;
  RunMetrics b;
  a.completed = b.completed = true;
  a.k = b.k = 10;
  a.slots = b.slots = 20;
  for (std::uint64_t v = 1; v <= 10; ++v) a.latency_histogram.add(v);
  for (std::uint64_t v = 11; v <= 20; ++v) b.latency_histogram.add(v);
  const AggregateResult res = aggregate_runs("x", 10, {a, b});
  EXPECT_DOUBLE_EQ(res.latency_p50, 10.5);
  EXPECT_NEAR(res.latency_p95, 19.05, 1e-9);
  EXPECT_NEAR(res.latency_p99, 19.81, 1e-9);
}

TEST(AggregateRuns, LatencyPercentilesStayZeroWithoutRecording) {
  RunMetrics a;
  a.completed = true;
  a.k = 5;
  a.slots = 9;
  const AggregateResult res = aggregate_runs("x", 5, {a});
  EXPECT_DOUBLE_EQ(res.latency_p50, 0.0);
  EXPECT_DOUBLE_EQ(res.latency_p95, 0.0);
  EXPECT_DOUBLE_EQ(res.latency_p99, 0.0);
}

TEST(RunNodeExperiment, RequiresNodeView) {
  ProtocolFactory fair_only;
  fair_only.name = "fair-only";
  fair_only.fair_slot = [](std::uint64_t k) {
    return std::make_unique<KnownKGenie>(k);
  };
  EXPECT_THROW(
      run_node_experiment(fair_only, batched_arrivals(5), 1, 1, {}),
      ContractViolation);
}

}  // namespace
}  // namespace ucr
