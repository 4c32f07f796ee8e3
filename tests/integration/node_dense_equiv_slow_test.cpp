// Paper-scale (`slow`-labeled) half of the dense-arrival equivalence
// suite (see node_dense_equiv_test.cpp for the tier-1 half): node vs
// node_batched over every catalogued window protocol at k = 10^5, on the
// dense Poisson cells the pre-drawn window slots exist for and a
// 1000-burst contention cell (100 simultaneous stations per burst). At
// this scale a Monte-Carlo ensemble is unaffordable, and for window
// protocols it is also unnecessary: the pre-draw makes both engines
// consume the engine stream
// identically (one draw per activation, everything else degenerate), so
// the strongest available check is exact — every metric of a same-seed
// run, per-message latencies included, must be bit-identical while the
// batched engine skips virtually every slot.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/registry.hpp"
#include "sim/runner.hpp"
#include "tests/common/latency_runs.hpp"

namespace ucr {
namespace {

std::vector<ProtocolFactory> window_protocols() {
  std::vector<ProtocolFactory> selected;
  for (auto& p : all_protocols()) {
    if (p.window && p.node) selected.push_back(p);
  }
  EXPECT_GE(selected.size(), 3u);
  return selected;
}

EngineOptions exact_options() {
  EngineOptions options;
  options.record_latencies = true;
  options.record_deliveries = true;  // per-message sequences, in order
  return options;
}

EngineOptions batched_options() {
  EngineOptions options = exact_options();
  options.batched = true;
  return options;
}

void expect_bit_identity_at_scale(const ArrivalPattern& arrivals,
                                  const std::string& cell_label) {
  for (const auto& factory : window_protocols()) {
    SCOPED_TRACE(factory.name + " (" + cell_label + ")");
    const RunMetrics exact =
        run_single_node(factory, arrivals, 0, 9090, exact_options());
    const RunMetrics batched =
        run_single_node(factory, arrivals, 0, 9090, batched_options());
    ASSERT_TRUE(exact.completed);
    EXPECT_EQ(exact.slots, batched.slots);
    EXPECT_EQ(exact.silence_slots, batched.silence_slots);
    EXPECT_EQ(exact.collision_slots, batched.collision_slots);
    EXPECT_EQ(exact.success_slots, batched.success_slots);
    EXPECT_EQ(exact.transmissions, batched.transmissions);
    EXPECT_DOUBLE_EQ(exact.expected_transmissions,
                     batched.expected_transmissions);
    EXPECT_EQ(exact.max_station_transmissions,
              batched.max_station_transmissions);
    EXPECT_EQ(exact.delivery_slots, batched.delivery_slots);
    EXPECT_EQ(exact.latencies, batched.latencies);
    EXPECT_EQ(testutil::latency_runs(exact.latency_histogram),
              testutil::latency_runs(batched.latency_histogram));
  }
}

TEST(NodeDenseEquivalenceSlow, PoissonLambda001AtPaperScale) {
  Xoshiro256 arrival_rng = Xoshiro256::stream(71, 0);
  const auto arrivals = poisson_arrivals(100'000, 0.01, arrival_rng);
  expect_bit_identity_at_scale(arrivals, "poisson 0.01");
}

TEST(NodeDenseEquivalenceSlow, PoissonLambda01AtPaperScale) {
  Xoshiro256 arrival_rng = Xoshiro256::stream(72, 0);
  const auto arrivals = poisson_arrivals(100'000, 0.1, arrival_rng);
  expect_bit_identity_at_scale(arrivals, "poisson 0.1");
}

TEST(NodeDenseEquivalenceSlow, BurstCellAtPaperScale) {
  const auto arrivals = burst_arrivals(1000, 100, 2000);
  expect_bit_identity_at_scale(arrivals, "burst 1000 x 100");
}

}  // namespace
}  // namespace ucr
