// Persistence of experiment results: the one schema of an aggregate row,
// which the CSV codec here, the JSONL sink and the result cache all encode
// (docs/ARCHITECTURE.md "Result schema"), so archived sweeps can be
// re-plotted without re-running them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace ucr {

/// A Summary member of AggregateResult. CSV and JSONL carry some of its
/// statistics as columns; cache records store it whole under `key`.
struct SummaryColumn {
  const char* key;
  Summary AggregateResult::*member;
};
inline constexpr SummaryColumn kMakespan{"makespan",
                                         &AggregateResult::makespan};
inline constexpr SummaryColumn kRatio{"ratio", &AggregateResult::ratio};

enum class FieldKind { kString, kU64, kDouble };

/// One column of the result schema: its CSV header name, its JSONL and
/// cache-record key, its kind, and where its value lives in an
/// AggregateResult — the member pointer of its kind, or `summary` plus
/// `stat` for a statistic of a Summary.
struct ResultField {
  const char* csv_name;
  const char* key;
  FieldKind kind;
  std::string AggregateResult::*text = nullptr;
  std::uint64_t AggregateResult::*count = nullptr;
  double AggregateResult::*real = nullptr;
  const SummaryColumn* summary = nullptr;
  double Summary::*stat = nullptr;

  /// The value of a kDouble field, in a const or a mutable result.
  template <class Result>
  auto& real_in(Result& result) const {
    return summary ? (result.*summary->member).*stat : result.*real;
  }
};

constexpr ResultField column(const char* name,
                             std::string AggregateResult::*member) {
  return {name, name, FieldKind::kString, member};
}
constexpr ResultField column(const char* name,
                             std::uint64_t AggregateResult::*member) {
  return {name, name, FieldKind::kU64, nullptr, member};
}
constexpr ResultField column(const char* name,
                             double AggregateResult::*member) {
  return {name, name, FieldKind::kDouble, nullptr, nullptr, member};
}
constexpr ResultField column(const char* csv_name, const char* key,
                             const SummaryColumn& summary,
                             double Summary::*stat) {
  return {csv_name, key, FieldKind::kDouble, nullptr, nullptr, nullptr,
          &summary, stat};
}

/// The result schema in CSV column order. CSV rows append a `spec_hash`
/// provenance column; JSONL lines and cache records put their own keys
/// first. Adding a column is one line here, plus a kCacheSchemaVersion
/// bump since cache records change shape.
inline constexpr ResultField kResultFields[] = {
    column("protocol", &AggregateResult::protocol),
    column("k", &AggregateResult::k),
    column("runs", &AggregateResult::runs),
    column("incomplete_runs", &AggregateResult::incomplete_runs),
    column("mean_makespan", "mean_makespan", kMakespan, &Summary::mean),
    column("stddev", "stddev_makespan", kMakespan, &Summary::stddev),
    column("min", "min_makespan", kMakespan, &Summary::min),
    column("p25", "p25_makespan", kMakespan, &Summary::p25),
    column("median", "median_makespan", kMakespan, &Summary::median),
    column("p75", "p75_makespan", kMakespan, &Summary::p75),
    column("p95", "p95_makespan", kMakespan, &Summary::p95),
    column("max", "max_makespan", kMakespan, &Summary::max),
    column("mean_ratio", "mean_ratio", kRatio, &Summary::mean),
    column("latency_p50", &AggregateResult::latency_p50),
    column("latency_p95", &AggregateResult::latency_p95),
    column("latency_p99", &AggregateResult::latency_p99),
    column("energy_mean", &AggregateResult::energy_mean),
    column("energy_max", &AggregateResult::energy_max),
};

/// The schema split once: the identity of a cell's row (protocol, k) and
/// its measures. JSONL lines carry the cell's workload labels in between.
inline constexpr std::span<const ResultField> kIdentityFields =
    std::span(kResultFields).first<2>();
inline constexpr std::span<const ResultField> kMeasureFields =
    std::span(kResultFields).subspan<2>();

/// Appends `,"key":value` for a field: strings quoted and JSON-escaped,
/// integers in decimal, doubles through `format` — format_double(., 6)
/// in JSONL lines, format_double_shortest in cache records.
void append_json_member(std::string& out, const ResultField& field,
                        const AggregateResult& result,
                        std::string (*format)(double));

/// Sets a field from its text, which must be spelled as the writers spell
/// it (std::from_chars: no sign on integers, no blanks, '+' or hex, no
/// out-of-range value); throws ContractViolation otherwise.
void set_field(const ResultField& field, AggregateResult& result,
               const std::string& text);

/// One CSV row: the aggregate (without per-run details) and its
/// provenance, the spec's shard-invariant content hash
/// (ucr::exp::spec_hash; empty for rows assembled by hand).
struct AggregateRow {
  AggregateResult result;
  std::string spec_hash;
};

/// Writes a header plus one row per result.
void write_aggregate_csv(std::ostream& os,
                         const std::vector<AggregateRow>& rows);

/// The CSV header line (no line terminator): every field's CSV name, then
/// spec_hash.
const std::string& aggregate_csv_header();

/// Incremental writers behind write_aggregate_csv, for streaming emission
/// (exp/sink.hpp): header exactly as write_aggregate_csv emits it, one row
/// at a time. write_aggregate_csv(os, rows) == write_aggregate_header(os)
/// followed by write_aggregate_row for each row, byte for byte.
void write_aggregate_header(std::ostream& os);
void write_aggregate_row(std::ostream& os, const AggregateResult& result,
                         const std::string& spec_hash);

/// Reads rows written by write_aggregate_csv. Throws ContractViolation on
/// malformed input: a header other than this schema's, a wrong column
/// count, a numeric cell in any spelling the writer does not produce, or
/// more incomplete runs than runs.
std::vector<AggregateRow> read_aggregate_csv(std::istream& is);

/// Splits one CSV line into cells, honouring RFC 4180 quoting (the inverse
/// of CsvWriter::escape). Exposed for tests.
std::vector<std::string> parse_csv_line(const std::string& line);

}  // namespace ucr
