#include "sim/observer.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "core/one_fail_adaptive.hpp"
#include "core/exp_backon_backoff.hpp"
#include "sim/fair_engine.hpp"
#include "sim/node_engine.hpp"

namespace ucr {
namespace {

TEST(DownsampledSeries, RejectsZeroStride) {
  EXPECT_THROW(DownsampledSeries(0), ContractViolation);
}

TEST(DownsampledSeries, KeepsEveryStrideth) {
  DownsampledSeries series(3);
  for (std::uint64_t s = 0; s < 10; ++s) {
    series.on_slot(SlotView{s, 5, 0.2, SlotOutcome::kSilence});
  }
  EXPECT_EQ(series.observed_slots(), 10u);
  ASSERT_EQ(series.series().size(), 4u);  // slots 0, 3, 6, 9
  EXPECT_EQ(series.series()[1].slot, 3u);
}

TEST(DownsampledSeries, KeepsSuccessesWhenAsked) {
  DownsampledSeries series(100, /*keep_successes=*/true);
  series.on_slot(SlotView{0, 5, 0.2, SlotOutcome::kSilence});   // kept (0%100)
  series.on_slot(SlotView{1, 5, 0.2, SlotOutcome::kCollision}); // dropped
  series.on_slot(SlotView{2, 5, 0.2, SlotOutcome::kSuccess});   // kept
  ASSERT_EQ(series.series().size(), 2u);
  EXPECT_EQ(series.series()[1].outcome, SlotOutcome::kSuccess);
}

TEST(Observer, FairSlotEngineCallsOncePerSlot) {
  DownsampledSeries series(1);
  OneFailAdaptive protocol;
  Xoshiro256 rng(1);
  EngineOptions opts;
  opts.observer = &series;
  const RunMetrics m = run_fair_slot_engine(protocol, 50, rng, opts);
  EXPECT_EQ(series.observed_slots(), m.slots);
  EXPECT_EQ(series.series().size(), m.slots);
  // Success slots in the series match the metrics.
  std::uint64_t successes = 0;
  for (const auto& v : series.series()) {
    if (v.outcome == SlotOutcome::kSuccess) ++successes;
  }
  EXPECT_EQ(successes, m.success_slots);
}

TEST(Observer, ProbabilityExposesEstimatorOnAtSteps) {
  // SlotView::probability on an AT step is 1/kappa~, so the very first
  // slot must report 1/(delta+1).
  DownsampledSeries series(1);
  OneFailAdaptive protocol;
  Xoshiro256 rng(2);
  EngineOptions opts;
  opts.observer = &series;
  opts.max_slots = 4;
  (void)run_fair_slot_engine(protocol, 100, rng, opts);
  ASSERT_GE(series.series().size(), 1u);
  EXPECT_NEAR(series.series()[0].probability, 1.0 / 3.72, 1e-12);
}

TEST(Observer, ActiveCountIsPreDeliveryDensity) {
  DownsampledSeries series(1);
  OneFailAdaptive protocol;
  Xoshiro256 rng(3);
  EngineOptions opts;
  opts.observer = &series;
  const RunMetrics m = run_fair_slot_engine(protocol, 20, rng, opts);
  ASSERT_TRUE(m.completed);
  // First slot sees all 20; the last success slot sees exactly 1.
  EXPECT_EQ(series.series().front().active, 20u);
  const auto& last = series.series().back();
  EXPECT_EQ(last.outcome, SlotOutcome::kSuccess);
  EXPECT_EQ(last.active, 1u);
  // Active is non-increasing along the run.
  for (std::size_t i = 1; i < series.series().size(); ++i) {
    EXPECT_LE(series.series()[i].active, series.series()[i - 1].active);
  }
}

TEST(Observer, NodeEngineCallsOncePerSlot) {
  // The exact node engine materializes every slot, so metrics and
  // observer-derived traces must agree slot for slot — same contract the
  // fair engines honour.
  DownsampledSeries series(1);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<OneFailAdaptiveNode>();
  };
  Xoshiro256 rng(5);
  EngineOptions opts;
  opts.observer = &series;
  const RunMetrics m =
      run_node_engine(factory, batched_arrivals(30), rng, opts);
  EXPECT_EQ(series.observed_slots(), m.slots);
  EXPECT_EQ(series.series().size(), m.slots);
  std::uint64_t successes = 0;
  for (const auto& v : series.series()) {
    if (v.outcome == SlotOutcome::kSuccess) ++successes;
  }
  EXPECT_EQ(successes, m.success_slots);
}

TEST(Observer, NodeEngineSeesEmptyArrivalGapSlots) {
  // The PR 2 window-engine pending==0 regression, ported: the slots of an
  // empty arrival gap are exactly the ones the batched node engine
  // bulk-skips, and the exact engine must still hand every one of them to
  // the observer — as silence, with zero active stations and probability
  // 0 — so observer traces never diverge from RunMetrics.
  DownsampledSeries series(1);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<OneFailAdaptiveNode>();
  };
  Xoshiro256 rng(6);
  EngineOptions opts;
  opts.observer = &series;
  opts.record_deliveries = true;
  ArrivalPattern arrivals{0, 200};
  const RunMetrics m = run_node_engine(factory, arrivals, rng, opts);
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(series.observed_slots(), m.slots);
  // Every slot after the first delivery and before slot 200 is an empty
  // gap slot: silence, no active stations, probability 0.
  const std::uint64_t first_delivery = m.delivery_slots.empty()
                                           ? series.series().size()
                                           : m.delivery_slots.front();
  bool saw_gap_slot = false;
  for (const auto& v : series.series()) {
    if (v.slot > first_delivery && v.slot < 200) {
      saw_gap_slot = true;
      EXPECT_EQ(v.outcome, SlotOutcome::kSilence);
      EXPECT_EQ(v.active, 0u);
      EXPECT_DOUBLE_EQ(v.probability, 0.0);
    }
  }
  EXPECT_TRUE(saw_gap_slot);
}

TEST(Observer, BatchedNodeEngineRejectsObservers) {
  // Skipped stretches are never materialized: attaching a per-slot
  // observer to the batched node engine is a contract violation, exactly
  // as for the batched fair engines.
  DownsampledSeries series(1);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<OneFailAdaptiveNode>();
  };
  Xoshiro256 rng(7);
  EngineOptions opts;
  opts.batched = true;
  opts.observer = &series;
  EXPECT_THROW(run_node_engine(factory, batched_arrivals(10), rng, opts),
               ContractViolation);
}

TEST(Observer, WindowEngineReportsHazards) {
  DownsampledSeries series(1);
  ExpBackonBackoff schedule;
  Xoshiro256 rng(4);
  EngineOptions opts;
  opts.observer = &series;
  opts.max_slots = 2;  // first sawtooth window has exactly 2 slots
  (void)run_fair_window_engine(schedule, 10, rng, opts);
  ASSERT_EQ(series.series().size(), 2u);
  EXPECT_DOUBLE_EQ(series.series()[0].probability, 0.5);  // 1/(2-0)
  EXPECT_DOUBLE_EQ(series.series()[1].probability, 1.0);  // 1/(2-1)
}

}  // namespace
}  // namespace ucr
