// Integration: the per-node engine with EngineOptions::batched (stretch
// skipping in run_node_engine) induces the same law of outcomes
// as the exact per-node engine, for every protocol in the catalogue, under
// dynamic arrivals. Wherever a stationary stretch is actually skipped the
// batched path consumes randomness differently (geometric run lengths and
// a conditional success-attribution draw instead of per-station coins), so
// individual runs may differ; equivalence is checked statistically — mean
// and median makespan plus mean collision count within Monte-Carlo
// tolerances — through the same shared helper
// (tests/common/stat_equiv.hpp) as tests/integration/batched_engine_test.cpp.
//
// The file also pins the contracts the fast path ships with:
//  * default-hint (stationary_slots() == 1) protocols are bit-identical to
//    the exact engine — empty arrival gaps consume no randomness in either
//    engine, so the skip is invisible;
//  * window protocols are bit-identical too: the adapter pre-draws its one
//    in-window transmission slot from a private per-station substream
//    (protocols/window_node.hpp), so every window slot has probability
//    exactly 0 or 1, certified stretches are deterministic silence, and
//    the degenerate geometric/binomial draws consume nothing — per-message
//    latencies included;
//  * at paper scale (k >= 10^5 Poisson cell) the batched engine beats the
//    exact one by >= 5x wall-clock, on the sparse cell where empty slots
//    dominate AND on the dense lambda = 0.01 cell where the pre-drawn
//    certificates (not arrival gaps) carry the skip — the reason the
//    pre-draw exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "core/dynamic_one_fail.hpp"
#include "core/registry.hpp"
#include "sim/runner.hpp"
#include "tests/common/latency_runs.hpp"
#include "tests/common/stat_equiv.hpp"

namespace ucr {
namespace {

ProtocolFactory factory_by_name(const std::string& name) {
  if (name == "Dynamic One-Fail Adaptive") {
    return make_dynamic_one_fail_factory();
  }
  for (auto& p : all_protocols()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "unknown protocol: " << name;
  return {};
}

EngineOptions exact_options() {
  EngineOptions options;
  options.record_latencies = true;  // feeds the latency-percentile check
  return options;
}

EngineOptions batched_options() {
  EngineOptions options = exact_options();
  options.batched = true;
  return options;
}

class NodeBatchedEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(NodeBatchedEquivalence, PoissonCellAgrees) {
  const auto factory = factory_by_name(GetParam());
  Xoshiro256 arrival_rng = Xoshiro256::stream(12, 0);
  const auto arrivals = poisson_arrivals(80, 0.05, arrival_rng);
  const std::uint64_t runs = 120;
  const AggregateResult exact =
      run_node_experiment(factory, arrivals, runs, 1111, exact_options());
  const AggregateResult batched =
      run_node_experiment(factory, arrivals, runs, 2222, batched_options());
  testutil::expect_statistical_agreement(exact, batched,
                                         GetParam() + " (poisson)");
}

TEST_P(NodeBatchedEquivalence, BurstCellAgrees) {
  // Bursts create real per-burst contention, so protocol dynamics (and
  // the collision envelope) dominate — the workload where a modeling
  // error in the stretch sampler would actually show.
  const auto factory = factory_by_name(GetParam());
  const auto arrivals = burst_arrivals(4, 20, 400);
  const std::uint64_t runs = 120;
  const AggregateResult exact =
      run_node_experiment(factory, arrivals, runs, 3333, exact_options());
  const AggregateResult batched =
      run_node_experiment(factory, arrivals, runs, 4444, batched_options());
  testutil::expect_statistical_agreement(exact, batched,
                                         GetParam() + " (burst)");
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, NodeBatchedEquivalence,
    ::testing::Values("One-Fail Adaptive", "Exp Back-on/Back-off",
                      "Log-Fails Adaptive (2)", "Log-Fails Adaptive (10)",
                      "LogLog-Iterated Back-off",
                      "Exponential Back-off (r=2)", "Known-k genie (1/k)",
                      "Dynamic One-Fail Adaptive"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(NodeBatchedEquivalence, HintOneProtocolsAreBitIdentical) {
  // One-Fail Adaptive and Dynamic One-Fail keep the conservative
  // stationary hint of 1 (their estimators move every slot), so every
  // busy slot takes the exact per-station draws in the exact order —
  // and empty arrival gaps consume no randomness in either engine.
  // Switching EngineOptions::batched must not change a single metric.
  Xoshiro256 arrival_rng = Xoshiro256::stream(31, 0);
  const auto poisson = poisson_arrivals(120, 0.04, arrival_rng);
  const auto bursts = burst_arrivals(3, 25, 500);
  for (const auto& factory :
       {factory_by_name("One-Fail Adaptive"),
        make_dynamic_one_fail_factory()}) {
    SCOPED_TRACE(factory.name);
    for (const auto* arrivals : {&poisson, &bursts}) {
      for (std::uint64_t run = 0; run < 5; ++run) {
        const RunMetrics exact =
            run_single_node(factory, *arrivals, run, 77, {});
        const RunMetrics batched =
            run_single_node(factory, *arrivals, run, 77, batched_options());
        EXPECT_EQ(exact.slots, batched.slots);
        EXPECT_EQ(exact.silence_slots, batched.silence_slots);
        EXPECT_EQ(exact.collision_slots, batched.collision_slots);
        EXPECT_EQ(exact.transmissions, batched.transmissions);
        EXPECT_DOUBLE_EQ(exact.expected_transmissions,
                         batched.expected_transmissions);
      }
    }
  }
}

TEST(NodeBatchedEquivalence, WindowProtocolsAreBitIdentical) {
  // The window adapter pre-draws its in-window transmission slot from a
  // private per-station substream keyed by one engine draw at activation
  // (common/rng.hpp, derive_window_offset_stream), so its per-slot
  // probabilities are exact 0s and 1s: every engine-stream consumer
  // (Bernoulli coins, the truncated geometric, the binomial split) is
  // draw-free at degenerate p, both engines consume exactly one engine
  // draw per activated station, and the bulk skip is invisible —
  // bit-identical runs down to the per-message latencies, with real
  // multi-slot stretches exercised *before* stations transmit, not just
  // in sent-window tails.
  Xoshiro256 arrival_rng = Xoshiro256::stream(32, 0);
  // Dense enough that stations overlap and pre-transmission run-ups are
  // routinely skipped.
  const auto arrivals = poisson_arrivals(150, 0.1, arrival_rng);
  // Per-message sequences, so delivery order is compared too.
  EngineOptions exact_with_order = exact_options();
  exact_with_order.record_deliveries = true;
  EngineOptions batched_with_order = batched_options();
  batched_with_order.record_deliveries = true;
  for (const char* name :
       {"Exp Back-on/Back-off", "LogLog-Iterated Back-off",
        "Exponential Back-off (r=2)"}) {
    SCOPED_TRACE(name);
    const auto factory = factory_by_name(name);
    for (std::uint64_t run = 0; run < 3; ++run) {
      const RunMetrics exact =
          run_single_node(factory, arrivals, run, 88, exact_with_order);
      const RunMetrics batched =
          run_single_node(factory, arrivals, run, 88, batched_with_order);
      EXPECT_EQ(exact.slots, batched.slots);
      EXPECT_EQ(exact.silence_slots, batched.silence_slots);
      EXPECT_EQ(exact.collision_slots, batched.collision_slots);
      EXPECT_EQ(exact.transmissions, batched.transmissions);
      EXPECT_DOUBLE_EQ(exact.expected_transmissions,
                       batched.expected_transmissions);
      EXPECT_EQ(exact.delivery_slots, batched.delivery_slots);
      EXPECT_EQ(exact.latencies, batched.latencies);
      EXPECT_EQ(testutil::latency_runs(exact.latency_histogram),
                testutil::latency_runs(batched.latency_histogram));
    }
  }
}

// Shared body of the paper-scale speedup pins: exact once, batched
// fastest-of-three (short enough that one scheduler preemption could
// distort a single measurement), printed evidence, asserted floor.
void expect_paper_scale_speedup(const char* tag, std::uint64_t k,
                                double lambda, double required_speedup) {
  const auto factory = factory_by_name("Exp Back-on/Back-off");
  Xoshiro256 arrival_rng = Xoshiro256::stream(4242, 0);
  const auto arrivals = poisson_arrivals(k, lambda, arrival_rng);

  using clock = std::chrono::steady_clock;
  const auto exact_start = clock::now();
  const RunMetrics exact = run_single_node(factory, arrivals, 0, 2011, {});
  const auto exact_end = clock::now();
  double batched_ms = std::numeric_limits<double>::infinity();
  RunMetrics batched;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto start = clock::now();
    batched = run_single_node(factory, arrivals, 0, 2011, batched_options());
    const auto end = clock::now();
    batched_ms = std::min(
        batched_ms,
        std::chrono::duration<double, std::milli>(end - start).count());
  }

  ASSERT_TRUE(exact.completed);
  ASSERT_TRUE(batched.completed);

  const double exact_ms =
      std::chrono::duration<double, std::milli>(exact_end - exact_start)
          .count();
  const double speedup = exact_ms / batched_ms;
  // Shown in the test log (--output-on-failure or ctest -V) as the
  // recorded evidence for the acceptance criterion.
  std::printf("[ node-batched ] %s k=%llu poisson(%g) exp_backon: exact "
              "%.1f ms (%llu slots), batched %.1f ms (%llu slots), "
              "speedup %.1fx\n",
              tag, static_cast<unsigned long long>(k), lambda, exact_ms,
              static_cast<unsigned long long>(exact.slots), batched_ms,
              static_cast<unsigned long long>(batched.slots), speedup);
  EXPECT_GE(speedup, required_speedup);
}

TEST(NodeBatchedEquivalence, PaperScaleSpeedupOnPoissonCell) {
  // The acceptance bar for the fast path: >= 5x wall-clock over the exact
  // node engine on a k >= 10^5 Poisson cell. Sparse sustained arrivals
  // are the worst case for the exact engine — the channel is idle (or
  // waiting out window tails) for the overwhelming majority of its ~10^7
  // slots, each costing a full per-slot iteration.
#ifdef NDEBUG
  // lambda sized so the skippable (empty / window-tail) slots dominate
  // by a wide margin: the pin must hold with sanitizer instrumentation
  // on top (CI runs this under ASan/UBSan), which taxes the batched
  // path's materialized slots more than the exact engine's idle loop.
  const std::uint64_t k = 100'000;
  const double lambda = 0.002;
  const double required_speedup = 5.0;
#else
  // Unoptimized builds: same shape, smaller k, sparser cell and a softer
  // bar (the constant factors between the paths shift without inlining).
  const std::uint64_t k = 20'000;
  const double lambda = 0.005;
  const double required_speedup = 3.0;
#endif
  expect_paper_scale_speedup("sparse", k, lambda, required_speedup);
}

TEST(NodeBatchedEquivalence, PaperScaleSpeedupOnDensePoissonCell) {
  // The dense-cell acceptance bar for the pre-drawn window slots: before
  // the pre-draw a not-yet-transmitted station certified only the current
  // slot, so lambda >= 0.01 cells — where some station is almost always
  // mid-window — degenerated the batched engine to per-slot cost. With
  // the pre-draw every station certifies its whole silent run-up and
  // tail, so the skip survives density: >= 5x wall-clock at k = 10^5,
  // lambda = 0.01 (sanitizer instrumentation included, as in CI).
#ifdef NDEBUG
  const std::uint64_t k = 100'000;
  const double lambda = 0.01;
  const double required_speedup = 5.0;
#else
  const std::uint64_t k = 20'000;
  const double lambda = 0.01;
  const double required_speedup = 3.0;
#endif
  expect_paper_scale_speedup("dense", k, lambda, required_speedup);
}

}  // namespace
}  // namespace ucr
