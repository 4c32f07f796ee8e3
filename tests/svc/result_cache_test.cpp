// ResultCache — the provenance-keyed store: exact round-trips, atomic
// publication, and loud rejection of anything stale, corrupt or
// misaddressed (schema drift must fail the consumer, never silently
// recompute).
#include "svc/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/check.hpp"
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

}  // namespace
}  // namespace ucr::svc
