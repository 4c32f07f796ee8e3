#include "sim/resultio.hpp"

#include <charconv>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace ucr {

namespace {

std::string field_text(const ResultField& field, const AggregateResult& result,
                       std::string (*format)(double)) {
  switch (field.kind) {
    case FieldKind::kString:
      return result.*field.text;
    case FieldKind::kU64:
      return std::to_string(result.*field.count);
    case FieldKind::kDouble:
      break;
  }
  return format(field.real_in(result));
}

std::string format_fixed6(double v) { return format_double(v, 6); }

}  // namespace

void append_json_member(std::string& out, const ResultField& field,
                        const AggregateResult& result,
                        std::string (*format)(double)) {
  const std::string text = field_text(field, result, format);
  out += ",\"";
  out += field.key;
  out += "\":";
  out += field.kind == FieldKind::kString ? '"' + json::escape(text) + '"'
                                          : text;
}

void set_field(const ResultField& field, AggregateResult& result,
               const std::string& text) {
  if (field.kind == FieldKind::kString) {
    result.*field.text = text;
    return;
  }
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed =
      field.kind == FieldKind::kU64
          ? std::from_chars(text.data(), end, result.*field.count)
          : std::from_chars(text.data(), end, field.real_in(result));
  UCR_REQUIRE(parsed.ec == std::errc() && parsed.ptr == end,
              "malformed number '" + text + "' for " + field.key);
}

const std::string& aggregate_csv_header() {
  static const std::string header = [] {
    std::string line;
    for (const ResultField& field : kResultFields) {
      line += field.csv_name;
      line += ',';
    }
    return line + "spec_hash";
  }();
  return header;
}

void write_aggregate_header(std::ostream& os) {
  os << aggregate_csv_header() << '\n';
}

void write_aggregate_row(std::ostream& os, const AggregateResult& result,
                         const std::string& spec_hash) {
  std::string line;
  for (const ResultField& field : kResultFields) {
    line += CsvWriter::escape(field_text(field, result, format_fixed6));
    line += ',';
  }
  line += CsvWriter::escape(spec_hash);
  line += '\n';
  os << line;
}

void write_aggregate_csv(std::ostream& os,
                         const std::vector<AggregateRow>& rows) {
  write_aggregate_header(os);
  for (const AggregateRow& row : rows) {
    write_aggregate_row(os, row.result, row.spec_hash);
  }
}

std::vector<std::string> parse_csv_line(const std::string& line) {
  // A quote may only open a cell, and the quote closing it must end the
  // cell: anything else (`1"2"`, `"1"2`, `a"b`) is not the writer's output.
  std::size_t end = line.size();
  if (end > 0 && line[end - 1] == '\r') --end;  // CRLF line end
  std::vector<std::string> cells;
  std::size_t i = 0;
  for (;;) {
    std::string cell;
    if (i < end && line[i] == '"') {
      for (++i;; ++i) {
        UCR_REQUIRE(i < end, "unterminated quote in CSV line");
        if (line[i] != '"') {
          cell += line[i];
        } else if (i + 1 < end && line[i + 1] == '"') {
          cell += '"';  // escaped quote
          ++i;
        } else {
          break;
        }
      }
      ++i;  // past the closing quote
      UCR_REQUIRE(i == end || line[i] == ',',
                  "CSV quote closes before the end of its cell");
    } else {
      for (; i < end && line[i] != ','; ++i) {
        UCR_REQUIRE(line[i] != '"',
                    "CSV quote inside a cell (quotes may only wrap a "
                    "whole cell)");
        cell += line[i];
      }
    }
    cells.push_back(std::move(cell));
    if (i == end) return cells;
    ++i;  // past the comma
  }
}

std::vector<AggregateRow> read_aggregate_csv(std::istream& is) {
  std::string line;
  UCR_REQUIRE(static_cast<bool>(std::getline(is, line)),
              "empty CSV input");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  UCR_REQUIRE(line == aggregate_csv_header(), "unexpected CSV header");

  std::vector<AggregateRow> rows;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = parse_csv_line(line);
    UCR_REQUIRE(cells.size() == std::size(kResultFields) + 1,
                "wrong number of columns");
    AggregateRow row;
    for (std::size_t i = 0; i < std::size(kResultFields); ++i) {
      set_field(kResultFields[i], row.result, cells[i]);
    }
    UCR_REQUIRE(row.result.incomplete_runs <= row.result.runs,
                "row has more incomplete runs than runs");
    row.spec_hash = cells.back();
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ucr
