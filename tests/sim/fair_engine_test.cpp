#include "sim/fair_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "sim/observer.hpp"

namespace ucr {
namespace {

// EngineOptions with only the batched mode switched on.
EngineOptions batched_options() {
  EngineOptions options;
  options.batched = true;
  return options;
}

// Fixed shared probability (the simplest fair protocol). Keeps the
// default batching hint of 1: the batched engine must fall back to the
// exact per-slot path for it.
class FixedFair : public FairSlotProtocol {
 public:
  explicit FixedFair(double p) : p_(p) {}
  double transmit_probability() const override { return p_; }
  void on_slot_end(bool) override {}

 private:
  double p_;
};

// Same protocol, advertising its constant probability to the batched
// engine.
class ConstantFair final : public FixedFair {
 public:
  using FixedFair::FixedFair;
  std::uint64_t constant_probability_slots() const override {
    return ~std::uint64_t{0};
  }
  void on_non_delivery_slots(std::uint64_t) override {}
};

// Counts every observer callback, split by outcome.
class CountingObserver final : public SlotObserver {
 public:
  void on_slot(const SlotView& view) override {
    ++total;
    if (view.outcome == SlotOutcome::kSilence) ++silences;
    last_slot = view.slot;
  }
  std::uint64_t total = 0;
  std::uint64_t silences = 0;
  std::uint64_t last_slot = 0;
};

class BadFair final : public FairSlotProtocol {
 public:
  double transmit_probability() const override { return -0.1; }
  void on_slot_end(bool) override {}
};

// Fixed window size forever.
class FixedWindow final : public WindowSchedule {
 public:
  explicit FixedWindow(std::uint64_t w) : w_(w) {}
  std::uint64_t next_window_slots() override { return w_; }

 private:
  std::uint64_t w_;
};

TEST(FairSlotEngine, SingleStationFullProbability) {
  FixedFair protocol(1.0);
  Xoshiro256 rng(1);
  const RunMetrics m = run_fair_slot_engine(protocol, 1, rng, {});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 1u);
  EXPECT_DOUBLE_EQ(m.expected_transmissions, 1.0);
}

TEST(FairSlotEngine, TwoStationsFullProbabilityDeadlocks) {
  FixedFair protocol(1.0);
  Xoshiro256 rng(2);
  EngineOptions opts;
  opts.max_slots = 100;
  const RunMetrics m = run_fair_slot_engine(protocol, 2, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.collision_slots, 100u);
}

TEST(FairSlotEngine, SolvesWithReasonableProbability) {
  FixedFair protocol(0.05);
  Xoshiro256 rng(3);
  const RunMetrics m = run_fair_slot_engine(protocol, 20, rng, {});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.deliveries, 20u);
}

TEST(FairSlotEngine, RejectsZeroK) {
  FixedFair protocol(0.5);
  Xoshiro256 rng(4);
  EXPECT_THROW(run_fair_slot_engine(protocol, 0, rng, {}),
               ContractViolation);
}

TEST(FairSlotEngine, RejectsBadProbability) {
  BadFair protocol;
  Xoshiro256 rng(5);
  EXPECT_THROW(run_fair_slot_engine(protocol, 2, rng, {}),
               ContractViolation);
}

TEST(FairSlotEngine, RecordsDeliverySlots) {
  FixedFair protocol(0.1);
  Xoshiro256 rng(6);
  EngineOptions opts;
  opts.record_deliveries = true;
  const RunMetrics m = run_fair_slot_engine(protocol, 10, rng, opts);
  ASSERT_TRUE(m.completed);
  ASSERT_EQ(m.delivery_slots.size(), 10u);
  EXPECT_EQ(m.slots, m.delivery_slots.back() + 1);
}

TEST(FairWindowEngine, WindowOfOneWithOneStation) {
  FixedWindow schedule(1);
  Xoshiro256 rng(7);
  const RunMetrics m = run_fair_window_engine(schedule, 1, rng, {});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 1u);
  EXPECT_EQ(m.transmissions, 1u);
}

TEST(FairWindowEngine, WindowOfOneWithManyDeadlocks) {
  // Every station picks the single slot of every window: all collide.
  FixedWindow schedule(1);
  Xoshiro256 rng(8);
  EngineOptions opts;
  opts.max_slots = 50;
  const RunMetrics m = run_fair_window_engine(schedule, 3, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.collision_slots, 50u);
  EXPECT_EQ(m.transmissions, 150u);  // 3 per slot
}

TEST(FairWindowEngine, LargeWindowSolvesQuickly) {
  FixedWindow schedule(64);
  Xoshiro256 rng(9);
  const RunMetrics m = run_fair_window_engine(schedule, 8, rng, {});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.deliveries, 8u);
}

TEST(FairWindowEngine, EveryStationTransmitsOncePerFullWindow) {
  // With w slots and m stations, exactly m transmissions happen per full
  // window (delivered stations leave the pool for later windows).
  FixedWindow schedule(16);
  Xoshiro256 rng(10);
  EngineOptions opts;
  opts.max_slots = 16;  // exactly one window
  const RunMetrics m = run_fair_window_engine(schedule, 5, rng, opts);
  EXPECT_EQ(m.transmissions, 5u);
}

TEST(FairWindowEngine, MeanDeliveriesMatchSingletonExpectation) {
  // m balls into w = m bins: expected singletons = m (1 - 1/m)^{m-1}.
  const std::uint64_t m0 = 64;
  RunningStats singles;
  for (int trial = 0; trial < 400; ++trial) {
    FixedWindow schedule(m0);
    Xoshiro256 rng = Xoshiro256::stream(11, trial);
    EngineOptions opts;
    opts.max_slots = m0;  // exactly one window
    const RunMetrics m = run_fair_window_engine(schedule, m0, rng, opts);
    singles.add(static_cast<double>(m.deliveries));
  }
  const double expected =
      static_cast<double>(m0) *
      std::pow(1.0 - 1.0 / static_cast<double>(m0), m0 - 1);
  EXPECT_NEAR(singles.mean(), expected, 0.05 * expected);
}

TEST(FairWindowEngine, CapInsideWindowRespected) {
  FixedWindow schedule(1000);
  Xoshiro256 rng(12);
  EngineOptions opts;
  opts.max_slots = 10;
  const RunMetrics m = run_fair_window_engine(schedule, 500, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, 10u);
}

TEST(FairWindowEngine, RejectsZeroK) {
  FixedWindow schedule(4);
  Xoshiro256 rng(13);
  EXPECT_THROW(run_fair_window_engine(schedule, 0, rng, {}),
               ContractViolation);
}

TEST(FairWindowEngine, ObserverSeesBulkSilenceSlots) {
  // Regression: the pending == 0 fast path advanced metrics.slots without
  // emitting observer callbacks, so observer-derived traces disagreed
  // with RunMetrics. Every elapsed slot must reach the observer.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    FixedWindow schedule(32);
    Xoshiro256 rng = Xoshiro256::stream(900, seed);
    CountingObserver observer;
    EngineOptions opts;
    opts.observer = &observer;
    const RunMetrics m = run_fair_window_engine(schedule, 3, rng, opts);
    ASSERT_TRUE(m.completed);
    EXPECT_EQ(observer.total, m.slots) << "seed " << seed;
    EXPECT_EQ(observer.silences, m.silence_slots) << "seed " << seed;
    EXPECT_EQ(observer.last_slot, m.slots - 1) << "seed " << seed;
  }
}

TEST(FairWindowEngine, ObserverSeesBulkSilenceUpToCap) {
  // The same path truncated by the slot cap mid-window.
  FixedWindow schedule(1000);
  Xoshiro256 rng(901);
  CountingObserver observer;
  EngineOptions opts;
  opts.observer = &observer;
  opts.max_slots = 40;
  const RunMetrics m = run_fair_window_engine(schedule, 2, rng, opts);
  EXPECT_EQ(m.slots, 40u);
  EXPECT_EQ(observer.total, 40u);
  EXPECT_EQ(observer.silences, m.silence_slots);
}

// ------------------------------------------------- batched slot engine

TEST(BatchedSlotEngine, SingleStationFullProbability) {
  ConstantFair protocol(1.0);
  Xoshiro256 rng(40);
  const RunMetrics m =
      run_fair_slot_engine(protocol, 1, rng, batched_options());
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 1u);
  EXPECT_DOUBLE_EQ(m.expected_transmissions, 1.0);
}

TEST(BatchedSlotEngine, TwoStationsFullProbabilityDeadlocks) {
  // p = 1 with two stations: every slot collides; the geometric draw must
  // return the whole stretch and the silence/collision split must label
  // all of it collision.
  ConstantFair protocol(1.0);
  Xoshiro256 rng(41);
  EngineOptions opts;
  opts.batched = true;
  opts.max_slots = 100;
  const RunMetrics m = run_fair_slot_engine(protocol, 2, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.collision_slots, 100u);
  EXPECT_EQ(m.silence_slots, 0u);
}

TEST(BatchedSlotEngine, ZeroProbabilityIsAllSilence) {
  ConstantFair protocol(0.0);
  Xoshiro256 rng(42);
  EngineOptions opts;
  opts.batched = true;
  opts.max_slots = 1000;
  const RunMetrics m = run_fair_slot_engine(protocol, 5, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.silence_slots, 1000u);
  EXPECT_DOUBLE_EQ(m.expected_transmissions, 0.0);
}

TEST(BatchedSlotEngine, SolvesAndRecordsDeliveries) {
  ConstantFair protocol(0.05);
  Xoshiro256 rng(43);
  EngineOptions opts;
  opts.batched = true;
  opts.record_deliveries = true;
  const RunMetrics m = run_fair_slot_engine(protocol, 20, rng, opts);
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.deliveries, 20u);
  ASSERT_EQ(m.delivery_slots.size(), 20u);
  EXPECT_EQ(m.slots, m.delivery_slots.back() + 1);
}

TEST(BatchedSlotEngine, BitIdenticalToExactForHintOneProtocols) {
  // A protocol with the default hint of 1 takes the exact per-slot path,
  // draw for draw: the whole run must be identical to the exact engine's.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    FixedFair exact_protocol(0.08);
    FixedFair batched_protocol(0.08);
    Xoshiro256 rng_a = Xoshiro256::stream(910, seed);
    Xoshiro256 rng_b = Xoshiro256::stream(910, seed);
    const RunMetrics a = run_fair_slot_engine(exact_protocol, 15, rng_a, {});
    const RunMetrics b =
        run_fair_slot_engine(batched_protocol, 15, rng_b, batched_options());
    EXPECT_EQ(a.slots, b.slots);
    EXPECT_EQ(a.silence_slots, b.silence_slots);
    EXPECT_EQ(a.collision_slots, b.collision_slots);
    EXPECT_DOUBLE_EQ(a.expected_transmissions, b.expected_transmissions);
  }
}

TEST(BatchedSlotEngine, MeanMakespanMatchesExactEngine) {
  // Same protocol, batched vs exact: the laws must agree (here via the
  // mean over independent runs; the integration suite covers the real
  // protocols).
  RunningStats exact_stats;
  RunningStats batched_stats;
  const int runs = 400;
  for (int r = 0; r < runs; ++r) {
    FixedFair exact_protocol(0.06);
    ConstantFair batched_protocol(0.06);
    Xoshiro256 rng_a = Xoshiro256::stream(920, r);
    Xoshiro256 rng_b = Xoshiro256::stream(921, r);
    exact_stats.add(static_cast<double>(
        run_fair_slot_engine(exact_protocol, 12, rng_a, {}).slots));
    batched_stats.add(static_cast<double>(
        run_fair_slot_engine(batched_protocol, 12, rng_b, batched_options())
            .slots));
  }
  const double se = std::sqrt(exact_stats.variance() / runs +
                              batched_stats.variance() / runs);
  EXPECT_NEAR(exact_stats.mean(), batched_stats.mean(),
              4.0 * se + 0.02 * exact_stats.mean());
}

TEST(BatchedSlotEngine, RejectsObserver) {
  ConstantFair protocol(0.5);
  Xoshiro256 rng(44);
  CountingObserver observer;
  EngineOptions opts;
  opts.batched = true;
  opts.observer = &observer;
  EXPECT_THROW(run_fair_slot_engine(protocol, 2, rng, opts),
               ContractViolation);
}

TEST(BatchedSlotEngine, RejectsZeroK) {
  ConstantFair protocol(0.5);
  Xoshiro256 rng(45);
  EXPECT_THROW(run_fair_slot_engine(protocol, 0, rng, batched_options()),
               ContractViolation);
}

// ----------------------------------------------- batched window engine

TEST(BatchedWindowEngine, WindowOfOneWithOneStation) {
  FixedWindow schedule(1);
  Xoshiro256 rng(50);
  const RunMetrics m =
      run_fair_window_engine(schedule, 1, rng, batched_options());
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 1u);
  EXPECT_EQ(m.transmissions, 1u);
}

TEST(BatchedWindowEngine, WindowOfOneWithManyDeadlocks) {
  FixedWindow schedule(1);
  Xoshiro256 rng(51);
  EngineOptions opts;
  opts.batched = true;
  opts.max_slots = 50;
  const RunMetrics m = run_fair_window_engine(schedule, 3, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.collision_slots, 50u);
  EXPECT_EQ(m.transmissions, 150u);  // 3 per slot
}

TEST(BatchedWindowEngine, LargeWindowSolvesQuickly) {
  FixedWindow schedule(64);
  Xoshiro256 rng(52);
  const RunMetrics m =
      run_fair_window_engine(schedule, 8, rng, batched_options());
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.deliveries, 8u);
}

TEST(BatchedWindowEngine, EveryStationTransmitsOncePerFullWindow) {
  FixedWindow schedule(16);
  Xoshiro256 rng(53);
  EngineOptions opts;
  opts.batched = true;
  opts.max_slots = 16;  // exactly one window
  const RunMetrics m = run_fair_window_engine(schedule, 5, rng, opts);
  EXPECT_EQ(m.transmissions, 5u);
}

TEST(BatchedWindowEngine, MeanDeliveriesMatchSingletonExpectation) {
  // m balls into w = m bins: expected singletons = m (1 - 1/m)^{m-1} —
  // the same law the exact engine is pinned against.
  const std::uint64_t m0 = 64;
  RunningStats singles;
  for (int trial = 0; trial < 400; ++trial) {
    FixedWindow schedule(m0);
    Xoshiro256 rng = Xoshiro256::stream(54, trial);
    EngineOptions opts;
    opts.batched = true;
    opts.max_slots = m0;  // exactly one window
    const RunMetrics m = run_fair_window_engine(schedule, m0, rng, opts);
    singles.add(static_cast<double>(m.deliveries));
  }
  const double expected =
      static_cast<double>(m0) *
      std::pow(1.0 - 1.0 / static_cast<double>(m0), m0 - 1);
  EXPECT_NEAR(singles.mean(), expected, 0.05 * expected);
}

TEST(BatchedWindowEngine, CapInsideWindowRespected) {
  FixedWindow schedule(1000);
  Xoshiro256 rng(55);
  EngineOptions opts;
  opts.batched = true;
  opts.max_slots = 10;
  const RunMetrics m = run_fair_window_engine(schedule, 500, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, 10u);
}

TEST(BatchedWindowEngine, BitmapAndSortedPathsAgreeDrawForDraw) {
  // k = 70 stations in 4480-slot windows sits exactly on the bitmap-path
  // gate, and with ~58% probability all 70 choices are singletons — the
  // run then ends mid-window through the bitmap early exit. Forcing the
  // sorted-walk path via record_deliveries on the same seed must
  // reproduce every metric, including the mid-window makespan.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    FixedWindow plain_schedule(4480);
    Xoshiro256 plain_rng = Xoshiro256::stream(930, seed);
    const RunMetrics plain = run_fair_window_engine(
        plain_schedule, 70, plain_rng, batched_options());
    ASSERT_TRUE(plain.completed);

    FixedWindow recording_schedule(4480);
    Xoshiro256 recording_rng = Xoshiro256::stream(930, seed);
    EngineOptions opts;
    opts.batched = true;
    opts.record_deliveries = true;
    const RunMetrics recorded =
        run_fair_window_engine(recording_schedule, 70, recording_rng, opts);
    ASSERT_TRUE(recorded.completed);
    ASSERT_EQ(recorded.delivery_slots.size(), 70u);
    EXPECT_EQ(recorded.slots, recorded.delivery_slots.back() + 1);
    // Identical seed => identical choices => identical metrics whether or
    // not the ordered path was forced.
    EXPECT_EQ(plain.slots, recorded.slots);
    EXPECT_EQ(plain.silence_slots, recorded.silence_slots);
    EXPECT_EQ(plain.collision_slots, recorded.collision_slots);
    EXPECT_EQ(plain.transmissions, recorded.transmissions);
  }
}

TEST(BatchedWindowEngine, MeanMakespanMatchesExactEngine) {
  RunningStats exact_stats;
  RunningStats batched_stats;
  const int runs = 300;
  for (int r = 0; r < runs; ++r) {
    FixedWindow exact_schedule(32);
    FixedWindow batched_schedule(32);
    Xoshiro256 rng_a = Xoshiro256::stream(940, r);
    Xoshiro256 rng_b = Xoshiro256::stream(941, r);
    exact_stats.add(static_cast<double>(
        run_fair_window_engine(exact_schedule, 24, rng_a, {}).slots));
    batched_stats.add(static_cast<double>(
        run_fair_window_engine(batched_schedule, 24, rng_b, batched_options())
            .slots));
  }
  const double se = std::sqrt(exact_stats.variance() / runs +
                              batched_stats.variance() / runs);
  EXPECT_NEAR(exact_stats.mean(), batched_stats.mean(),
              4.0 * se + 0.02 * exact_stats.mean());
}

TEST(BatchedWindowEngine, RejectsObserver) {
  FixedWindow schedule(8);
  Xoshiro256 rng(56);
  CountingObserver observer;
  EngineOptions opts;
  opts.batched = true;
  opts.observer = &observer;
  EXPECT_THROW(run_fair_window_engine(schedule, 2, rng, opts),
               ContractViolation);
}

TEST(BatchedWindowEngine, RejectsZeroK) {
  FixedWindow schedule(4);
  Xoshiro256 rng(57);
  EXPECT_THROW(run_fair_window_engine(schedule, 0, rng, batched_options()),
               ContractViolation);
}

}  // namespace
}  // namespace ucr
