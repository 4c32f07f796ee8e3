// Imperfect-channel scenarios end to end through the exp pipeline.
//
// The contracts pinned here are the ones docs/SCENARIOS.md promises:
//   - the fair and batched engines reject non-clean channels loudly;
//   - compile() routes every non-clean cell to the exact node engine, so
//     a batched-mode spec and a fair-mode spec of the same non-clean grid
//     produce identical results (the "loud fallback" is also a correct
//     one);
//   - every catalogued protocol runs under an adversarial arrival model
//     and an imperfect channel model;
//   - the energy columns are populated by the node engines and survive
//     the CSV round trip.
#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "core/dynamic_one_fail.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "sim/resultio.hpp"

namespace ucr {
namespace {

using exp::ArrivalSpec;
using exp::EngineMode;
using exp::ExperimentSpec;

std::vector<ProtocolFactory> full_catalogue() {
  auto protocols = all_protocols();
  protocols.push_back(make_dynamic_one_fail_factory());
  return protocols;
}

TEST(ChannelScenarios, FairAndBatchedEnginesRejectNonCleanChannels) {
  const ProtocolFactory factory = find_protocol(all_protocols(), "Known-k genie (1/k)");
  EngineOptions options;
  options.channel = ChannelModel::capture(0.5);
  EXPECT_THROW(run_single_fair(factory, 16, 0, 1, options),
               ContractViolation);
  options.batched = true;
  EXPECT_THROW(run_single_fair(factory, 16, 0, 1, options),
               ContractViolation);
  const ArrivalPattern arrivals(16, 0);
  EXPECT_THROW(run_single_node(factory, arrivals, 0, 1, options),
               ContractViolation);
}

TEST(ChannelScenarios, CompileRoutesNonCleanCellsToExactNode) {
  ExperimentSpec spec;
  spec.with_protocol("Known-k genie (1/k)").with_ks({32});
  spec.with_channel(ChannelModel::clean())
      .with_channel(ChannelModel::capture(0.5));
  spec.engine = EngineMode::kBatched;
  spec.runs = 2;
  const auto plan = exp::compile(spec, full_catalogue());
  ASSERT_EQ(plan.cells.size(), 2u);
  EXPECT_EQ(plan.cells[0].engine, EngineMode::kBatched);
  EXPECT_TRUE(plan.cells[0].channel.is_clean());
  EXPECT_EQ(plan.cells[1].engine, EngineMode::kNode);
  EXPECT_EQ(plan.cells[1].channel, ChannelModel::capture(0.5));
}

// Drop the trailing spec_hash column of every CSV line: the fair-mode
// and batched-mode spellings are different canonical texts, so their
// hashes legitimately differ even when every measured byte agrees.
std::string without_spec_hash(const std::string& csv) {
  std::string out;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) {
    out += line.substr(0, line.rfind(','));
    out += '\n';
  }
  return out;
}

// "Statistical equivalence" pin, and then some: because every non-clean
// cell routes to the exact node engine, the batched-mode and fair-mode
// specs of one imperfect grid are not merely equal in law, they are the
// same computation — byte-identical CSV up to the spec_hash provenance
// column (which names the spelling, not the results).
TEST(ChannelScenarios, BatchedSpecEqualsFairSpecUnderImperfectChannels) {
  const auto run_mode = [](EngineMode mode) {
    ExperimentSpec spec;
    spec.with_protocol("One-Fail Adaptive").with_protocol("Known-k genie (1/k)");
    spec.with_ks({16, 64});
    spec.with_arrival(ArrivalSpec::batch())
        .with_arrival(ArrivalSpec::schedule({0, 0, 3}));
    spec.with_channel(ChannelModel::capture(0.3))
        .with_channel(ChannelModel::jamming(0.1));
    spec.engine = mode;
    spec.runs = 3;
    // A finite cap keeps One-Fail Adaptive's capped livelock cells (it
    // stalls under heavy jamming) cheap; both modes cap identically.
    spec.engine_options.max_slots = 20000;
    std::ostringstream csv;
    const auto plan = exp::compile(spec, full_catalogue());
    exp::CsvStreamSink sink(csv);
    exp::run(plan, {&sink}, {1});
    return csv.str();
  };
  const std::string fair = without_spec_hash(run_mode(EngineMode::kFair));
  const std::string batched =
      without_spec_hash(run_mode(EngineMode::kBatched));
  EXPECT_FALSE(fair.empty());
  EXPECT_EQ(fair, batched);
}

TEST(ChannelScenarios, EveryProtocolRunsAdversarialArrivalsOnImperfectChannels) {
  ExperimentSpec spec;
  for (const auto& protocol : full_catalogue()) {
    spec.with_protocol(protocol.name);
  }
  spec.with_ks({24});
  spec.with_arrival(ArrivalSpec::schedule({0, 0, 0, 5}))
      .with_arrival(ArrivalSpec::mmpp(0.5, 0.01, 20))
      .with_arrival(ArrivalSpec::pareto(1.5, 1.0));
  spec.with_channel(ChannelModel::capture(0.5))
      .with_channel(ChannelModel::jam_burst(16, 2));
  spec.runs = 2;
  const auto plan = exp::compile(spec, full_catalogue());
  exp::MemorySink memory;
  exp::run(plan, {&memory}, {1});
  ASSERT_EQ(memory.results().size(), full_catalogue().size() * 3 * 2);
  for (std::size_t i = 0; i < memory.results().size(); ++i) {
    const AggregateResult& result = memory.results()[i];
    EXPECT_EQ(memory.cells()[i].engine, EngineMode::kNode);
    // One-Fail Adaptive as published livelocks under sustained arrivals
    // (see EXPERIMENTS.md), and burst jamming aggravates it — its capped
    // runs are the documented finding, not a failure.
    if (result.protocol != "One-Fail Adaptive") {
      EXPECT_EQ(result.incomplete_runs, 0u)
          << result.protocol << " under "
          << memory.cells()[i].arrival.label() << " / "
          << memory.cells()[i].channel.label();
    }
    // Exact per-station accounting: someone transmitted at least once,
    // and no station can transmit more than the run took slots.
    EXPECT_GT(result.energy_mean, 0.0);
    EXPECT_GE(result.energy_max, 1.0);
    EXPECT_LE(result.energy_max, result.makespan.max);
  }
}

TEST(ChannelScenarios, EnergyColumnsSurviveTheCsvRoundTrip) {
  ExperimentSpec spec;
  spec.with_protocol("Known-k genie (1/k)").with_ks({32});
  spec.with_channel(ChannelModel::capture(0.8));
  spec.runs = 2;
  std::ostringstream csv;
  const auto plan = exp::compile(spec, full_catalogue());
  exp::CsvStreamSink sink(csv);
  exp::run(plan, {&sink}, {1});

  std::istringstream in(csv.str());
  const auto rows = read_aggregate_csv(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0].result.energy_mean, 0.0);
  EXPECT_GE(rows[0].result.energy_max, 1.0);

  // The fair engine reports the expected energy but cannot name a worst
  // station.
  ExperimentSpec fair;
  fair.with_protocol("Known-k genie (1/k)").with_ks({32});
  fair.runs = 2;
  exp::MemorySink memory;
  exp::run(exp::compile(fair, full_catalogue()), {&memory}, {1});
  ASSERT_EQ(memory.results().size(), 1u);
  EXPECT_GT(memory.results()[0].energy_mean, 0.0);
  EXPECT_EQ(memory.results()[0].energy_max, 0.0);
}

}  // namespace
}  // namespace ucr
