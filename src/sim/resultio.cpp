#include "sim/resultio.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iterator>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace ucr {

namespace {

constexpr const char* kHeader[] = {
    "protocol",
    "k",
    "runs",
    "incomplete_runs",
    "mean_makespan",
    "stddev",
    "min",
    "p25",
    "median",
    "p75",
    "p95",
    "max",
    "mean_ratio",
    "latency_p50",
    "latency_p95",
    "latency_p99",
    "energy_mean",
    "energy_max",
    "spec_hash",
};
constexpr std::size_t kColumns = sizeof(kHeader) / sizeof(kHeader[0]);

double parse_double(const std::string& cell) {
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  UCR_REQUIRE(end != cell.c_str() && *end == '\0',
              "malformed numeric cell '" + cell + "'");
  return v;
}

std::uint64_t parse_u64(const std::string& cell) {
  // strtoull alone would accept a sign (wrapping "-1" to 2^64 - 1),
  // leading blanks and out-of-range values (saturated): digits only.
  const bool digits = !cell.empty() && cell[0] >= '0' && cell[0] <= '9';
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(cell.c_str(), &end, 10);
  UCR_REQUIRE(digits && errno != ERANGE && *end == '\0',
              "malformed integer cell '" + cell + "'");
  return v;
}

}  // namespace

AggregateRow AggregateRow::from(const AggregateResult& result) {
  AggregateRow row;
  row.protocol = result.protocol;
  row.k = result.k;
  row.runs = result.runs;
  row.incomplete_runs = result.incomplete_runs;
  row.mean_makespan = result.makespan.mean;
  row.stddev_makespan = result.makespan.stddev;
  row.min_makespan = result.makespan.min;
  row.p25_makespan = result.makespan.p25;
  row.median_makespan = result.makespan.median;
  row.p75_makespan = result.makespan.p75;
  row.p95_makespan = result.makespan.p95;
  row.max_makespan = result.makespan.max;
  row.mean_ratio = result.ratio.mean;
  row.latency_p50 = result.latency_p50;
  row.latency_p95 = result.latency_p95;
  row.latency_p99 = result.latency_p99;
  row.energy_mean = result.energy_mean;
  row.energy_max = result.energy_max;
  return row;
}

void write_aggregate_header(std::ostream& os) {
  CsvWriter writer(os);
  writer.write_row(
      std::vector<std::string>(kHeader, kHeader + kColumns));
}

void write_aggregate_row(std::ostream& os, const AggregateRow& r) {
  CsvWriter writer(os);
  writer.write_row({r.protocol, std::to_string(r.k), std::to_string(r.runs),
                    std::to_string(r.incomplete_runs),
                    format_double(r.mean_makespan, 6),
                    format_double(r.stddev_makespan, 6),
                    format_double(r.min_makespan, 6),
                    format_double(r.p25_makespan, 6),
                    format_double(r.median_makespan, 6),
                    format_double(r.p75_makespan, 6),
                    format_double(r.p95_makespan, 6),
                    format_double(r.max_makespan, 6),
                    format_double(r.mean_ratio, 6),
                    format_double(r.latency_p50, 6),
                    format_double(r.latency_p95, 6),
                    format_double(r.latency_p99, 6),
                    format_double(r.energy_mean, 6),
                    format_double(r.energy_max, 6), r.spec_hash});
}

void write_aggregate_csv(std::ostream& os,
                         const std::vector<AggregateRow>& rows) {
  write_aggregate_header(os);
  for (const AggregateRow& r : rows) {
    write_aggregate_row(os, r);
  }
}

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;  // escaped quote
        } else {
          in_quotes = false;
        }
      } else {
        cell += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (ch != '\r') {
      cell += ch;
    }
  }
  UCR_REQUIRE(!in_quotes, "unterminated quote in CSV line");
  cells.push_back(std::move(cell));
  return cells;
}

std::vector<AggregateRow> read_aggregate_csv(std::istream& is) {
  std::string line;
  UCR_REQUIRE(static_cast<bool>(std::getline(is, line)),
              "empty CSV input");
  const auto header = parse_csv_line(line);
  UCR_REQUIRE(std::equal(header.begin(), header.end(), std::begin(kHeader),
                         std::end(kHeader)),
              "unexpected CSV header");

  std::vector<AggregateRow> rows;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = parse_csv_line(line);
    UCR_REQUIRE(cells.size() == kColumns, "wrong number of columns");
    AggregateRow row;
    row.protocol = cells[0];
    row.k = parse_u64(cells[1]);
    row.runs = parse_u64(cells[2]);
    row.incomplete_runs = parse_u64(cells[3]);
    row.mean_makespan = parse_double(cells[4]);
    row.stddev_makespan = parse_double(cells[5]);
    row.min_makespan = parse_double(cells[6]);
    row.p25_makespan = parse_double(cells[7]);
    row.median_makespan = parse_double(cells[8]);
    row.p75_makespan = parse_double(cells[9]);
    row.p95_makespan = parse_double(cells[10]);
    row.max_makespan = parse_double(cells[11]);
    row.mean_ratio = parse_double(cells[12]);
    row.latency_p50 = parse_double(cells[13]);
    row.latency_p95 = parse_double(cells[14]);
    row.latency_p99 = parse_double(cells[15]);
    row.energy_mean = parse_double(cells[16]);
    row.energy_max = parse_double(cells[17]);
    row.spec_hash = cells[18];
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ucr
