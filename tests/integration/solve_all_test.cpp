// Integration: every protocol in the registry solves static k-selection on
// both engines — all k messages delivered, exactly once, with consistent
// metrics — across a parameterized sweep of protocol x k.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/registry.hpp"
#include "sim/runner.hpp"

namespace ucr {
namespace {

ProtocolFactory factory_by_name(const std::string& name) {
  for (auto& p : all_protocols()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "unknown protocol: " << name;
  return {};
}

using Case = std::tuple<std::string, std::uint64_t>;

class SolveAll : public ::testing::TestWithParam<Case> {};

TEST_P(SolveAll, FairEngineSolves) {
  const auto& [name, k] = GetParam();
  const auto factory = factory_by_name(name);
  EngineOptions opts;
  opts.record_deliveries = true;
  const AggregateResult res =
      run_fair_experiment(factory, k, 5, 20260612, opts);
  EXPECT_EQ(res.incomplete_runs, 0u) << name;
  for (const auto& run : res.details) {
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.deliveries, k);
    EXPECT_EQ(run.success_slots, k);
    EXPECT_EQ(run.delivery_slots.size(), k);
    // validate() already ran in the engine; re-run it to be explicit.
    EXPECT_NO_THROW(run.validate());
  }
}

TEST_P(SolveAll, NodeEngineSolves) {
  const auto& [name, k] = GetParam();
  const auto factory = factory_by_name(name);
  const AggregateResult res =
      run_node_experiment(factory, batched_arrivals(k), 3, 977, {});
  EXPECT_EQ(res.incomplete_runs, 0u) << name;
  for (const auto& run : res.details) {
    EXPECT_EQ(run.deliveries, k);
  }
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const auto& p : all_protocols()) {
    for (const std::uint64_t k : {1ULL, 2ULL, 3ULL, 10ULL, 100ULL, 1000ULL}) {
      // Log-Fails Adaptive at k <= 2 takes a pathologically long estimator
      // climb relative to k; keep it but skip nothing — it still finishes
      // within the default cap.
      cases.emplace_back(p.name, k);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsTimesK, SolveAll, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_k" + std::to_string(std::get<1>(info.param));
    });

TEST(SolveAllEdge, SingleMessageIsFast) {
  // k = 1: the very first transmission succeeds for every protocol whose
  // initial probability is positive; makespan must be tiny (< 100 slots).
  for (const auto& p : all_protocols()) {
    const AggregateResult res = run_fair_experiment(p, 1, 10, 5, {});
    EXPECT_EQ(res.incomplete_runs, 0u) << p.name;
    EXPECT_LT(res.makespan.max, 2000.0) << p.name;
  }
}

}  // namespace
}  // namespace ucr
