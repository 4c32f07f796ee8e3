// Integration: the typed per-node engine instantiations are the generic
// engine, byte for byte.
//
// Every catalogued protocol carries a NodeView::typed view, so
// run_single_node runs run_node_engine<P> for its final node class, with
// every station step a direct call. The generic run_node_engine over a
// plain NodeFactory (virtual calls) must produce the same run from the
// same seed: every RunMetrics field, per-message latencies and delivery
// slots included, and expected_transmissions bitwise. The exact mode also
// runs the imperfect channels (jamming, capture) and a per-slot observer,
// whose SlotView sequences must match too.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/registry.hpp"
#include "exp/spec.hpp"
#include "sim/node_engine.hpp"
#include "sim/observer.hpp"
#include "sim/runner.hpp"

namespace ucr {
namespace {

/// Keeps every slot the engine resolves.
class SlotLog final : public SlotObserver {
 public:
  void on_slot(const SlotView& view) override { views.push_back(view); }
  std::vector<SlotView> views;
};

void expect_same_run(const RunMetrics& typed, const RunMetrics& generic,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(typed.completed, generic.completed);
  EXPECT_EQ(typed.k, generic.k);
  EXPECT_EQ(typed.slots, generic.slots);
  EXPECT_EQ(typed.deliveries, generic.deliveries);
  EXPECT_EQ(typed.silence_slots, generic.silence_slots);
  EXPECT_EQ(typed.success_slots, generic.success_slots);
  EXPECT_EQ(typed.collision_slots, generic.collision_slots);
  EXPECT_EQ(typed.transmissions, generic.transmissions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(typed.expected_transmissions),
            std::bit_cast<std::uint64_t>(generic.expected_transmissions));
  EXPECT_EQ(typed.max_station_transmissions,
            generic.max_station_transmissions);
  EXPECT_EQ(typed.delivery_slots, generic.delivery_slots);
  EXPECT_EQ(typed.latencies, generic.latencies);
}

void expect_same_views(const std::vector<SlotView>& typed,
                       const std::vector<SlotView>& generic) {
  ASSERT_EQ(typed.size(), generic.size());
  for (std::size_t i = 0; i < typed.size(); ++i) {
    SCOPED_TRACE("slot view " + std::to_string(i));
    EXPECT_EQ(typed[i].slot, generic[i].slot);
    EXPECT_EQ(typed[i].active, generic[i].active);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(typed[i].probability),
              std::bit_cast<std::uint64_t>(generic[i].probability));
    EXPECT_EQ(typed[i].outcome, generic[i].outcome);
  }
}

/// The typed run (run_single_node through the catalogue's view) against
/// the generic engine over a NodeFactory wrapping the same view.
void expect_typed_matches_generic(const ProtocolFactory& factory,
                                  const ArrivalPattern& arrivals,
                                  EngineOptions options,
                                  const std::string& what) {
  constexpr std::uint64_t kSeed = 1306;
  const std::uint64_t k = arrivals.size();
  const NodeFactory generic = [&](Xoshiro256& rng) {
    return factory.node(k, rng);
  };
  for (std::uint64_t run = 0; run < 2; ++run) {
    SlotLog typed_log;
    SlotLog generic_log;
    const bool observe = !options.batched;
    if (observe) options.observer = &typed_log;
    const RunMetrics typed =
        run_single_node(factory, arrivals, run, kSeed, options);
    if (observe) options.observer = &generic_log;
    Xoshiro256 rng = Xoshiro256::stream(kSeed, run);
    const RunMetrics plain = run_node_engine(generic, arrivals, rng, options);
    const std::string label = what + " run " + std::to_string(run);
    expect_same_run(typed, plain, label);
    if (observe) {
      SCOPED_TRACE(label);
      expect_same_views(typed_log.views, generic_log.views);
    }
  }
}

const std::vector<std::string>& arrival_names() {
  static const std::vector<std::string> names = {"batch", "poisson(0.1)",
                                                 "poisson(0.5)", "burst(4,64)"};
  return names;
}

ArrivalPattern arrivals_for(std::size_t arrival) {
  using exp::ArrivalSpec;
  switch (arrival) {
    case 0:
      return ArrivalSpec::batch().materialize(100, 0, 0);
    case 1:
      return ArrivalSpec::poisson(0.1).materialize(200, 77, 0);
    case 2:
      return ArrivalSpec::poisson(0.5).materialize(200, 77, 1);
    default:
      return ArrivalSpec::burst(4, 64).materialize(200, 0, 0);
  }
}

// (catalogue index, arrival index, batched)
using Case = std::tuple<std::size_t, std::size_t, bool>;

class NodeTyped : public ::testing::TestWithParam<Case> {};

TEST_P(NodeTyped, TypedRunEqualsGenericRun) {
  const auto& [protocol, arrival, batched] = GetParam();
  const ProtocolFactory factory = default_catalogue().at(protocol);
  const ArrivalPattern arrivals = arrivals_for(arrival);
  EngineOptions options;
  options.max_slots = 4000;  // livelocking cells stop early
  options.record_deliveries = true;
  options.record_latencies = true;
  options.batched = batched;
  expect_typed_matches_generic(factory, arrivals, options, "clean");
  if (batched) return;  // imperfect channels run on the exact engine only
  options.channel = ChannelModel::jamming(0.1);
  expect_typed_matches_generic(factory, arrivals, options, "jamming(0.1)");
  options.channel = ChannelModel::capture(0.5);
  expect_typed_matches_generic(factory, arrivals, options, "capture(0.5)");
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (std::size_t p = 0; p < default_catalogue().size(); ++p) {
    for (std::size_t a = 0; a < arrival_names().size(); ++a) {
      cases.emplace_back(p, a, false);
      cases.emplace_back(p, a, true);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    CatalogueTimesArrivals, NodeTyped, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name =
          default_catalogue().at(std::get<0>(info.param)).name + "_" +
          arrival_names().at(std::get<1>(info.param)) +
          (std::get<2>(info.param) ? "_batched" : "_exact");
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(NodeTypedCatalogue, EveryCataloguedProtocolIsTyped) {
  for (const ProtocolFactory& factory : default_catalogue()) {
    EXPECT_TRUE(factory.node.has_typed_engine()) << factory.name;
  }
}

TEST(NodeTypedCatalogue, PlainLambdasTakeTheGenericEngine) {
  ProtocolFactory factory = default_catalogue().front();
  const NodeView typed = factory.node;
  factory.node = [typed](std::uint64_t k, Xoshiro256& rng) {
    return typed(k, rng);
  };
  EXPECT_FALSE(factory.node.has_typed_engine());
  const ArrivalPattern arrivals = arrivals_for(1);
  EngineOptions options;
  options.max_slots = 4000;
  options.record_latencies = true;
  ProtocolFactory reference = default_catalogue().front();
  expect_same_run(run_single_node(reference, arrivals, 0, 5, options),
                  run_single_node(factory, arrivals, 0, 5, options),
                  factory.name);
}

}  // namespace
}  // namespace ucr
