// ResultCache — the provenance-keyed store: exact round-trips, atomic
// publication, and loud rejection of anything stale, corrupt or
// misaddressed (schema drift must fail the consumer, never silently
// recompute).
#include "svc/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "exp/cell_task.hpp"
#include "exp/plan.hpp"
#include "exp/spec_io.hpp"
#include "tests/common/unique_test_dir.hpp"

namespace ucr::svc {
namespace {

namespace fs = std::filesystem;

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = unique_test_dir();
    fs::remove_all(root_);
    exp::ExperimentSpec spec;
    spec.runs = 2;
    spec.seed = 11;
    spec.with_ks({10, 30});
    spec.with_factory(paper_protocols().front());
    plan_ = exp::compile(spec);
    tasks_ = exp::enumerate_cell_tasks(plan_);
  }

  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  exp::ExperimentPlan plan_;
  std::vector<exp::CellTask> tasks_;
};

TEST_F(ResultCacheTest, StoreThenLoadRoundTripsEveryField) {
  ResultCache cache(root_.string());
  const AggregateResult computed = tasks_[0].execute().aggregate;
  cache.store(tasks_[0], computed);

  const auto loaded = cache.load(plan_.spec_hash, tasks_[0].cell.index);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->protocol, computed.protocol);
  EXPECT_EQ(loaded->k, computed.k);
  EXPECT_EQ(loaded->runs, computed.runs);
  EXPECT_EQ(loaded->incomplete_runs, computed.incomplete_runs);
  // Bitwise double equality — shortest-round-trip formatting is exact,
  // which is what makes cache replays byte-identical downstream.
  EXPECT_EQ(loaded->makespan.count, computed.makespan.count);
  EXPECT_EQ(loaded->makespan.mean, computed.makespan.mean);
  EXPECT_EQ(loaded->makespan.stddev, computed.makespan.stddev);
  EXPECT_EQ(loaded->makespan.min, computed.makespan.min);
  EXPECT_EQ(loaded->makespan.p25, computed.makespan.p25);
  EXPECT_EQ(loaded->makespan.median, computed.makespan.median);
  EXPECT_EQ(loaded->makespan.p75, computed.makespan.p75);
  EXPECT_EQ(loaded->makespan.p95, computed.makespan.p95);
  EXPECT_EQ(loaded->makespan.max, computed.makespan.max);
  EXPECT_EQ(loaded->makespan.ci95_halfwidth, computed.makespan.ci95_halfwidth);
  EXPECT_EQ(loaded->ratio.mean, computed.ratio.mean);
  EXPECT_EQ(loaded->ratio.ci95_halfwidth, computed.ratio.ci95_halfwidth);
  EXPECT_EQ(loaded->latency_p50, computed.latency_p50);
  EXPECT_EQ(loaded->latency_p95, computed.latency_p95);
  EXPECT_EQ(loaded->latency_p99, computed.latency_p99);
  EXPECT_EQ(loaded->energy_mean, computed.energy_mean);
  EXPECT_EQ(loaded->energy_max, computed.energy_max);
  // Per-run details are intentionally not persisted.
  EXPECT_TRUE(loaded->details.empty());
}

TEST_F(ResultCacheTest, MissingRecordIsANullopt) {
  ResultCache cache(root_.string());
  EXPECT_FALSE(cache.load(plan_.spec_hash, 0).has_value());
  EXPECT_FALSE(cache.load("0000000000000000", 3).has_value());
  EXPECT_EQ(cache.cell_count(plan_.spec_hash), 0u);
}

TEST_F(ResultCacheTest, CellCountSeesOnlyPublishedRecords) {
  ResultCache cache(root_.string());
  cache.store(tasks_[0], tasks_[0].execute().aggregate);
  cache.store(tasks_[1], tasks_[1].execute().aggregate);
  EXPECT_EQ(cache.cell_count(plan_.spec_hash), 2u);
  // No temp droppings: publication is rename-only.
  for (const auto& entry :
       fs::recursive_directory_iterator(root_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
}

TEST_F(ResultCacheTest, StaleSchemaVersionIsRejectedLoudly) {
  ResultCache cache(root_.string());
  const AggregateResult computed = tasks_[0].execute().aggregate;
  std::string record = ResultCache::encode_record(tasks_[0], computed);
  const std::string current =
      "\"cache_version\":" + std::to_string(kCacheSchemaVersion);
  const std::size_t at = record.find(current);
  ASSERT_NE(at, std::string::npos);
  record.replace(at, current.size(), "\"cache_version\":999");
  fs::create_directories(root_ / plan_.spec_hash);
  {
    std::ofstream out(
        cache.record_path(plan_.spec_hash, tasks_[0].cell.index));
    out << record;
  }
  try {
    cache.load(plan_.spec_hash, tasks_[0].cell.index);
    FAIL() << "stale record must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("stale cache record"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ResultCacheTest, CorruptRecordIsRejectedLoudly) {
  ResultCache cache(root_.string());
  fs::create_directories(root_ / plan_.spec_hash);
  {
    std::ofstream out(cache.record_path(plan_.spec_hash, 0));
    out << "{\"cache_version\":1,\"spec_ha";  // torn write
  }
  try {
    cache.load(plan_.spec_hash, 0);
    FAIL() << "corrupt record must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt cache record"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ResultCacheTest, MisplacedRecordIsRejectedLoudly) {
  // A record stored under a different address (wrong cell, wrong hash) is
  // archive corruption, not a hit.
  ResultCache cache(root_.string());
  const AggregateResult computed = tasks_[0].execute().aggregate;
  const std::string record =
      ResultCache::encode_record(tasks_[0], computed);
  fs::create_directories(root_ / plan_.spec_hash);
  {
    std::ofstream out(
        cache.record_path(plan_.spec_hash, tasks_[1].cell.index));
    out << record;  // cell 0's record at cell 1's address
  }
  EXPECT_THROW(cache.load(plan_.spec_hash, tasks_[1].cell.index),
               ContractViolation);
}

TEST_F(ResultCacheTest, EncodeDecodeAreExactInverses) {
  const AggregateResult computed = tasks_[1].execute().aggregate;
  const std::string record =
      ResultCache::encode_record(tasks_[1], computed);
  const AggregateResult decoded = ResultCache::decode_record(
      record, plan_.spec_hash, tasks_[1].cell.index, "test");
  EXPECT_EQ(ResultCache::encode_record(tasks_[1], decoded), record);
}

TEST(ResultCache, EncodedRecordBytesArePinned) {
  // The record layout is an on-disk format: these bytes must not move
  // without a kCacheSchemaVersion bump. The doubles need up to 17
  // significant digits (and exponent notation) to round-trip, and the
  // protocol name needs every kind of JSON escape.
  exp::CellTask task;
  task.spec_hash = "0123456789abcdef";
  task.cell.index = 42;
  AggregateResult result;
  result.protocol = "Tab\t\"quoted\" back\\slash\x01";
  result.k = 1000;
  result.runs = 10;
  result.incomplete_runs = 3;
  result.makespan.count = 10;
  result.makespan.mean = 0.1 + 0.2;
  result.makespan.stddev = 1.0 / 3.0;
  result.makespan.min = 7300;
  result.makespan.p25 = 7390.25;
  result.makespan.median = 1e21;
  result.makespan.p75 = 1.5e-7;
  result.makespan.p95 = 123456789.12345679;
  result.makespan.max = 18446744073709551616.0;
  result.makespan.ci95_halfwidth = 2.220446049250313e-16;
  result.ratio.count = 10;
  result.ratio.mean = 7.4325;
  result.latency_p50 = 12.5;
  result.latency_p95 = 91.25;
  result.latency_p99 = 0.1;
  result.energy_mean = 3.625;
  result.energy_max = 17;
  EXPECT_EQ(
      ResultCache::encode_record(task, result),
      "{\"cache_version\":1,\"spec_hash\":\"0123456789abcdef\",\"cell\":42,"
      "\"protocol\":\"Tab\\t\\\"quoted\\\" back\\\\slash\\u0001\","
      "\"k\":1000,\"runs\":10,\"incomplete_runs\":3,"
      "\"makespan\":[10,0.30000000000000004,0.3333333333333333,7300,"
      "7390.25,1e+21,1.5e-07,123456789.12345679,18446744073709551616,"
      "2.220446049250313e-16],"
      "\"ratio\":[10,7.4325,0,0,0,0,0,0,0,0],"
      "\"latency_p50\":12.5,\"latency_p95\":91.25,\"latency_p99\":0.1,"
      "\"energy_mean\":3.625,\"energy_max\":17}\n");
}

/// A record the program writes itself, of a result with a name that needs
/// escaping and doubles that need every significant digit.
std::string written_record() {
  exp::CellTask task;
  task.spec_hash = "0123456789abcdef";
  task.cell.index = 42;
  AggregateResult result;
  result.protocol = "One-Fail \"Adaptive\", v2";
  result.k = 1000;
  result.runs = 10;
  result.incomplete_runs = 3;
  result.makespan.count = 10;
  result.makespan.mean = 0.1 + 0.2;
  result.makespan.max = 1e21;
  result.ratio.count = 10;
  result.ratio.mean = 1.0 / 3.0;
  result.latency_p99 = 1.5e-7;
  result.energy_mean = 3.625;
  return ResultCache::encode_record(task, result);
}

/// JSON text of a parsed value (members in document order).
std::string to_json(const json::Value& value) {
  switch (value.type()) {
    case json::Value::Type::kNull:
      return "null";
    case json::Value::Type::kBool:
      return value.as_bool() ? "true" : "false";
    case json::Value::Type::kNumber:
      return value.number_token();
    case json::Value::Type::kString:
      return "\"" + json::escape(value.as_string()) + "\"";
    case json::Value::Type::kArray: {
      std::string text = "[";
      for (const json::Value& item : value.items()) {
        if (text.size() > 1) text += ',';
        text += to_json(item);
      }
      return text + "]";
    }
    case json::Value::Type::kObject:
      break;
  }
  std::string text = "{";
  for (const auto& [key, member] : value.members()) {
    if (text.size() > 1) text += ',';
    text += "\"" + json::escape(key) + "\":" + to_json(member);
  }
  return text + "}";
}

std::vector<std::string> member_keys(const std::string& text) {
  std::vector<std::string> keys;
  const json::Value record = json::parse(text);
  for (const auto& member : record.members()) {
    keys.push_back(member.first);
  }
  return keys;
}

/// One random mutation of a cache record: truncation, a dropped,
/// duplicated, renamed or extra member, two members swapped, a value of
/// the wrong type, a huge, negative or fractional number, or a summary
/// array of the wrong length.
std::string mutate(const std::string& text, Xoshiro256& rng) {
  const auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.next_below(bound));
  };
  std::vector<std::pair<std::string, std::string>> members;
  try {
    const json::Value record = json::parse(text);
    for (const auto& [key, value] : record.members()) {
      members.emplace_back(key, to_json(value));
    }
  } catch (const ContractViolation&) {
    return text + "}";  // an earlier round left no object to edit
  }
  if (members.empty()) return text.substr(0, text.size() / 2);
  const std::size_t at = pick(members.size());
  auto& [key, value] = members[at];
  switch (pick(9)) {
    case 0:  // truncation at any byte
      return text.substr(0, pick(text.size() + 1));
    case 1:  // a dropped member
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 2:  // a duplicated member
      members.insert(members.begin() + static_cast<std::ptrdiff_t>(at),
                     members[at]);
      break;
    case 3:  // a renamed member
      key += pick(2) == 0 ? "_" : "s";
      break;
    case 4:  // an extra member
      members.insert(members.begin() +
                         static_cast<std::ptrdiff_t>(pick(members.size() + 1)),
                     {"bogus", "[1,2]"});
      break;
    case 5:  // two members swapped
      std::swap(members[at], members[pick(members.size())]);
      break;
    case 6: {  // a value of the wrong type
      static const char* const values[] = {"\"7\"", "[7]", "true",
                                           "null", "{}", "\"\""};
      value = values[pick(std::size(values))];
      break;
    }
    case 7: {  // a huge, negative or fractional number
      static const char* const numbers[] = {
          "1e999", "-1e999", "18446744073709551616", "-1", "-0.5",
          "0.5", "1e-400", "99999999999999999999", "1.0", "0"};
      value = numbers[pick(std::size(numbers))];
      break;
    }
    default: {  // a summary array one entry short or long
      if (value.empty() || value[0] != '[') break;
      const std::size_t comma = value.rfind(',');
      value = pick(2) == 0 && comma != std::string::npos
                  ? value.substr(0, comma) + "]"
                  : value.substr(0, value.size() - 1) + ",0]";
      break;
    }
  }
  std::string out = "{";
  for (const auto& [k, v] : members) {
    if (out.size() > 1) out += ',';
    out += "\"" + k + "\":" + v;
  }
  return out + "}\n";
}

TEST(ResultCache, MutatedRecordIsRejectedLoudlyOrReadWhole) {
  // Deterministic mutation fuzz over a record the program wrote: every
  // input either decodes into a whole result or throws ContractViolation
  // — no other exception, no crash (run under ASan in the sanitizer CI
  // jobs). A record that decodes has exactly the written key set.
  const std::string original = written_record();
  const std::vector<std::string> keys = member_keys(original);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Xoshiro256 rng = Xoshiro256::stream(20261018, seed);
    std::string text = original;
    for (std::uint64_t round = 0, n = 1 + rng.next_below(3); round < n;
         ++round) {
      if (text.empty()) break;
      text = mutate(text, rng);
    }
    try {
      const AggregateResult result =
          ResultCache::decode_record(text, "0123456789abcdef", 42, "fuzz");
      ++accepted;
      EXPECT_EQ(member_keys(text), keys) << "seed " << seed << "\n" << text;
      EXPECT_LE(result.incomplete_runs, result.runs) << "seed " << seed;
    } catch (const ContractViolation&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": " << e.what() << "\n" << text;
    }
  }
  // Both outcomes occur, so the suite exercises the decoder's accept and
  // reject paths alike.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ResultCache, RecordWithForeignOrReorderedMembersIsRejected) {
  // Only the exact member list encode_record writes is a record: an extra
  // key is schema drift, not padding to skip.
  std::string record = written_record();
  const std::string extra =
      record.substr(0, record.size() - 2) + ",\"bogus\":[1,2]}\n";
  EXPECT_THROW(ResultCache::decode_record(extra, "0123456789abcdef", 42,
                                          "test"),
               ContractViolation);
  const std::string k = "\"k\":1000,";
  const std::string runs = "\"runs\":10,";
  ASSERT_NE(record.find(k + runs), std::string::npos);
  record.replace(record.find(k + runs), (k + runs).size(), runs + k);
  EXPECT_THROW(ResultCache::decode_record(record, "0123456789abcdef", 42,
                                          "test"),
               ContractViolation);
}

TEST(ResultCache, SubnormalDoublesRoundTrip) {
  // Shortest round-trip formatting writes the smallest subnormal as
  // "5e-324"; the decoder must read it back, in a Summary and alone.
  exp::CellTask task;
  task.spec_hash = "0123456789abcdef";
  AggregateResult result;
  result.makespan.stddev = std::numeric_limits<double>::denorm_min();
  result.latency_p50 = std::numeric_limits<double>::denorm_min();
  const AggregateResult decoded = ResultCache::decode_record(
      ResultCache::encode_record(task, result), task.spec_hash, 0, "test");
  EXPECT_EQ(decoded.makespan.stddev, result.makespan.stddev);
  EXPECT_EQ(decoded.latency_p50, result.latency_p50);
}

TEST(ResultCache, MoreIncompleteRunsThanRunsIsRejected) {
  std::string record = written_record();
  const std::string incomplete = "\"incomplete_runs\":3";
  ASSERT_NE(record.find(incomplete), std::string::npos);
  EXPECT_NO_THROW(ResultCache::decode_record(record, "0123456789abcdef", 42,
                                             "test"));
  record.replace(record.find(incomplete), incomplete.size(),
                 "\"incomplete_runs\":11");
  EXPECT_THROW(ResultCache::decode_record(record, "0123456789abcdef", 42,
                                          "test"),
               ContractViolation);
}

}  // namespace
}  // namespace ucr::svc
