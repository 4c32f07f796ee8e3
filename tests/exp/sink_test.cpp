// ResultSink semantics: round-trip through read_aggregate_csv, header-once
// (and only on shard 0), and grid-order emission regardless of dispatch
// order — the contract that makes streaming output deterministic.
#include "exp/sink.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hpp"
#include "core/registry.hpp"
#include "exp/run.hpp"
#include "exp/spec_io.hpp"

namespace ucr::exp {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.runs = 3;
  spec.seed = 99;
  spec.with_ks({10, 40, 80});
  for (const auto& p : paper_protocols()) spec.with_factory(p);
  return spec;
}

TEST(CsvSink, RoundTripsThroughReadAggregateCsv) {
  const ExperimentPlan plan = compile(small_spec());
  std::ostringstream csv;
  CsvStreamSink sink(csv);
  MemorySink memory;
  run(plan, {&sink, &memory}, {2});

  std::istringstream in(csv.str());
  const std::vector<AggregateRow> rows = read_aggregate_csv(in);
  ASSERT_EQ(rows.size(), memory.results().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AggregateResult& read = rows[i].result;
    EXPECT_EQ(read.protocol, memory.results()[i].protocol);
    EXPECT_EQ(read.k, memory.results()[i].k);
    EXPECT_EQ(read.runs, memory.results()[i].runs);
    // The resultio format carries 6 decimal places.
    EXPECT_NEAR(read.ratio.mean, memory.results()[i].ratio.mean, 1e-6);
    EXPECT_NEAR(read.makespan.mean, memory.results()[i].makespan.mean,
                1e-6);
  }
}

TEST(CsvSink, HeaderAppearsExactlyOnceAndOnlyOnShardZero) {
  ExperimentSpec spec = small_spec();
  const auto count_headers = [](const std::string& text) {
    std::size_t count = 0;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("protocol,", 0) == 0) ++count;
    }
    return count;
  };

  std::ostringstream whole;
  {
    CsvStreamSink sink(whole);
    run(compile(spec), {&sink}, {1});
  }
  EXPECT_EQ(count_headers(whole.str()), 1u);

  spec.shard.count = 2;
  spec.shard.index = 0;
  std::ostringstream shard0;
  {
    CsvStreamSink sink(shard0);
    run(compile(spec), {&sink}, {1});
  }
  spec.shard.index = 1;
  std::ostringstream shard1;
  {
    CsvStreamSink sink(shard1);
    run(compile(spec), {&sink}, {1});
  }
  EXPECT_EQ(count_headers(shard0.str()), 1u);
  EXPECT_EQ(count_headers(shard1.str()), 0u);  // header on shard 0 only
}

TEST(Sinks, EmitInGridOrderUnderConcurrentCompletion) {
  // Size-skewed grid on several workers: small cells of later grid rows
  // finish while earlier big cells are still running, so completion order
  // differs from grid order — emission must still be grid order.
  ExperimentSpec spec;
  spec.runs = 2;
  spec.with_ks({2000, 10, 50, 400});
  for (const auto& p : paper_protocols()) spec.with_factory(p);

  MemorySink memory;
  RunOptions options;
  options.threads = 4;
  run(compile(spec), {&memory}, options);

  ASSERT_EQ(memory.cells().size(), 5u * 4u);
  for (std::size_t i = 0; i < memory.cells().size(); ++i) {
    EXPECT_EQ(memory.cells()[i].index, i);
  }
}

TEST(JsonlSink, OneObjectPerCellWithIdentity) {
  ExperimentSpec spec;
  spec.runs = 2;
  spec.with_ks({10});
  spec.with_arrival(ArrivalSpec::batch());
  spec.with_arrival(ArrivalSpec::burst(2, 16));
  spec.with_factory(paper_protocols()[2]);  // One-Fail Adaptive

  std::ostringstream out;
  JsonlSink sink(out);
  run(compile(spec), {&sink}, {2});

  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"cell\":0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"arrival\":\"batch\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"engine\":\"fair\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cell\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"arrival\":\"burst(2,16)\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"engine\":\"node\""), std::string::npos);
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
    EXPECT_NE(l.find("\"protocol\":\"One-Fail Adaptive\""),
              std::string::npos);
    // The full percentile spread and the latency columns ride along in
    // every row, as does the spec provenance hash.
    for (const char* key :
         {"\"p25_makespan\":", "\"median_makespan\":", "\"p75_makespan\":",
          "\"p95_makespan\":", "\"latency_p50\":", "\"latency_p95\":",
          "\"latency_p99\":"}) {
      EXPECT_NE(l.find(key), std::string::npos) << key;
    }
    EXPECT_NE(l.find("\"spec_hash\":\"" + spec_hash(spec) + "\""),
              std::string::npos);
  }
}

TEST(Sinks, RowsCarryTheShardInvariantSpecHash) {
  // CSV rows stamp the plan's spec_hash; sharded and unsharded runs of
  // one sweep stamp the same value (the hash normalizes the shard out),
  // which is what keeps concatenated shard archives both self-describing
  // and byte-identical to the unsharded file (shard_test pins the bytes).
  ExperimentSpec spec = small_spec();
  const std::string expected = spec_hash(spec);

  const auto rows_of = [](const ExperimentSpec& s) {
    std::ostringstream out;
    CsvStreamSink sink(out);
    run(compile(s), {&sink}, {1});
    return out.str();
  };

  std::istringstream whole(rows_of(spec));
  for (const AggregateRow& row : read_aggregate_csv(whole)) {
    EXPECT_EQ(row.spec_hash, expected);
  }

  spec.shard.count = 2;
  spec.shard.index = 1;  // no header on shard 1: prepend one to re-read
  std::ostringstream shard1;
  {
    CsvStreamSink sink(shard1);
    run(compile(spec), {&sink}, {1});
  }
  std::ostringstream with_header;
  write_aggregate_header(with_header);
  std::istringstream sharded(with_header.str() + shard1.str());
  const auto rows = read_aggregate_csv(sharded);
  ASSERT_FALSE(rows.empty());
  for (const AggregateRow& row : rows) {
    EXPECT_EQ(row.spec_hash, expected);
  }
}

TEST(JsonlSink, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb"), "a\\nb");
  EXPECT_EQ(json::escape(std::string("a\x01") + "b"), "a\\u0001b");
}

}  // namespace
}  // namespace ucr::exp
