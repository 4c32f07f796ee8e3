// Result sinks — the output end of the exp pipeline.
//
// run() pushes every completed cell aggregate to each attached sink in
// grid order (the determinism contract of sim/sweep.hpp carries through:
// rows arrive in the same order, with the same bytes, for any thread count
// and dispatch order). Sinks are streaming by construction: a cell is
// handed over as soon as the grid prefix up to it is complete, so a
// file-backed sink holds O(1) cells however large the grid is.
//
// Shard semantics: sinks with a file-level header (CSV) emit it on shard
// 0 only, so concatenating the outputs of shards 0..N-1 byte-for-byte
// reproduces the unsharded file.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "sim/resultio.hpp"

namespace ucr::exp {

/// Consumer of completed cells. begin/emit/end are called from run(): emit
/// once per cell in grid order; begin before any cell; end after the last.
/// Sinks are not required to be thread-safe — run() serializes calls.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void begin(const ExperimentPlan& plan) { (void)plan; }
  virtual void emit(const CellInfo& cell, const AggregateResult& result) = 0;
  virtual void end() {}
};

/// Streaming CSV in the sim/resultio aggregate format (re-readable with
/// read_aggregate_csv): header exactly once, on shard 0 only, then one row
/// per cell, flushed as emitted — constant memory for any grid size. Rows
/// carry the plan's spec_hash, which is shard-invariant, so sharded
/// archives are self-describing and still concatenate byte-identically.
class CsvStreamSink final : public ResultSink {
 public:
  /// Does not take ownership; the stream must outlive the sink.
  /// `flush_each_row` (the default) flushes the stream after every row,
  /// so a streamed consumer — or the archive of a killed run — never
  /// loses a completed cell to buffering; pass false only for throughput
  /// sinks where end() alone flushing is acceptable.
  explicit CsvStreamSink(std::ostream& os, bool flush_each_row = true)
      : os_(&os), flush_each_row_(flush_each_row) {}

  void begin(const ExperimentPlan& plan) override;
  void emit(const CellInfo& cell, const AggregateResult& result) override;
  void end() override;

 private:
  std::ostream* os_;
  bool flush_each_row_;
  std::string spec_hash_;
};

/// One JSON object per line per cell, carrying the cell identity (grid
/// index, arrival label, engine) and the plan's spec_hash alongside the
/// aggregate — the format for heterogeneous grids, where a flat CSV row
/// cannot name the workload. No header, so shard concatenation is
/// trivially byte-identical.
class JsonlSink final : public ResultSink {
 public:
  /// Does not take ownership; the stream must outlive the sink.
  /// `flush_each_row` as in CsvStreamSink: every row reaches the consumer
  /// as soon as it is emitted (the sweep daemon's stream verb and killed
  /// runs both depend on it).
  explicit JsonlSink(std::ostream& os, bool flush_each_row = true)
      : os_(&os), flush_each_row_(flush_each_row) {}

  void begin(const ExperimentPlan& plan) override;
  void emit(const CellInfo& cell, const AggregateResult& result) override;
  void end() override;

 private:
  std::ostream* os_;
  bool flush_each_row_;
  std::string spec_hash_;
};

/// Collects cells in memory, for tests and table-rendering drivers.
class MemorySink final : public ResultSink {
 public:
  void emit(const CellInfo& cell, const AggregateResult& result) override;

  const std::vector<CellInfo>& cells() const { return cells_; }
  const std::vector<AggregateResult>& results() const { return results_; }
  std::vector<AggregateResult> take_results() { return std::move(results_); }

 private:
  std::vector<CellInfo> cells_;
  std::vector<AggregateResult> results_;
};

}  // namespace ucr::exp
