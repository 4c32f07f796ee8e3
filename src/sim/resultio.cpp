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
    } else if (ch != '\r' || i + 1 != line.size()) {  // CRLF line end
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
