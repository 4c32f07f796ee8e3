#include "sim/resultio.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "protocols/known_k.hpp"

namespace ucr {
namespace {

TEST(ParseCsvLine, PlainCells) {
  const auto cells = parse_csv_line("a,b,c");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "c");
}

TEST(ParseCsvLine, EmptyCells) {
  const auto cells = parse_csv_line(",x,");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "");
  EXPECT_EQ(cells[2], "");
}

TEST(ParseCsvLine, QuotedCellsWithCommasAndQuotes) {
  const auto cells = parse_csv_line("\"a,b\",\"say \"\"hi\"\"\",z");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a,b");
  EXPECT_EQ(cells[1], "say \"hi\"");
  EXPECT_EQ(cells[2], "z");
}

TEST(ParseCsvLine, StripsCarriageReturn) {
  const auto cells = parse_csv_line("a,b\r");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1], "b");
}

TEST(ParseCsvLine, RejectsUnterminatedQuote) {
  EXPECT_THROW(parse_csv_line("\"oops"), ContractViolation);
}

TEST(ParseCsvLine, RoundTripsCsvWriterEscaping) {
  for (const auto& original :
       {std::string("plain"), std::string("with,comma"),
        std::string("with \"quotes\""), std::string("")}) {
    const auto cells = parse_csv_line(CsvWriter::escape(original));
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0], original);
  }
}

TEST(ResultIo, RoundTripPreservesRows) {
  std::vector<AggregateRow> rows(2);
  rows[0].result.protocol = "One-Fail Adaptive";
  rows[0].result.k = 1000;
  rows[0].result.runs = 10;
  rows[0].result.makespan.mean = 7432.5;
  rows[0].result.makespan.stddev = 51.25;
  rows[0].result.makespan.min = 7300;
  rows[0].result.makespan.p25 = 7390.25;
  rows[0].result.makespan.median = 7430;
  rows[0].result.makespan.p75 = 7477.5;
  rows[0].result.makespan.p95 = 7539.125;
  rows[0].result.makespan.max = 7550;
  rows[0].result.ratio.mean = 7.4325;
  rows[0].result.latency_p50 = 12.5;
  rows[0].result.latency_p95 = 91.25;
  rows[0].result.latency_p99 = 140.125;
  rows[0].result.energy_mean = 3.625;
  rows[0].result.energy_max = 17;
  rows[0].spec_hash = "2eed288eb0fae51d";
  rows[1].result.protocol = "Log-Fails Adaptive (2)";  // name with parentheses
  rows[1].result.k = 100;
  rows[1].result.runs = 5;
  rows[1].result.incomplete_runs = 1;
  rows[1].result.makespan.mean = 9034;
  rows[1].result.ratio.mean = 90.34;

  std::stringstream ss;
  write_aggregate_csv(ss, rows);
  const auto back = read_aggregate_csv(ss);

  ASSERT_EQ(back.size(), 2u);
  const AggregateResult& got = back[0].result;
  const AggregateResult& want = rows[0].result;
  EXPECT_EQ(got.protocol, want.protocol);
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.runs, want.runs);
  EXPECT_NEAR(got.makespan.mean, want.makespan.mean, 1e-5);
  EXPECT_NEAR(got.makespan.stddev, want.makespan.stddev, 1e-5);
  EXPECT_NEAR(got.makespan.p25, want.makespan.p25, 1e-5);
  EXPECT_NEAR(got.makespan.median, want.makespan.median, 1e-5);
  EXPECT_NEAR(got.makespan.p75, want.makespan.p75, 1e-5);
  EXPECT_NEAR(got.makespan.p95, want.makespan.p95, 1e-5);
  EXPECT_NEAR(got.ratio.mean, want.ratio.mean, 1e-5);
  EXPECT_NEAR(got.latency_p50, want.latency_p50, 1e-5);
  EXPECT_NEAR(got.latency_p95, want.latency_p95, 1e-5);
  EXPECT_NEAR(got.latency_p99, want.latency_p99, 1e-5);
  EXPECT_NEAR(got.energy_mean, want.energy_mean, 1e-5);
  EXPECT_NEAR(got.energy_max, want.energy_max, 1e-5);
  EXPECT_EQ(back[0].spec_hash, rows[0].spec_hash);
  EXPECT_EQ(back[1].result.incomplete_runs, 1u);
  EXPECT_EQ(back[1].result.protocol, rows[1].result.protocol);
  EXPECT_EQ(back[1].spec_hash, "");  // hand-built rows carry no provenance
}

/// The schema field whose CSV column is `csv_name`.
const ResultField& field(const std::string& csv_name) {
  for (const ResultField& field : kResultFields) {
    if (field.csv_name == csv_name) return field;
  }
  throw ContractViolation("no column " + csv_name);
}

TEST(ResultIo, FromAggregateResult) {
  const auto factory = make_known_k_factory();
  const AggregateResult res = run_fair_experiment(factory, 50, 4, 1, {});
  const auto column = [&res](const std::string& csv_name) {
    return field(csv_name).real_in(res);
  };
  EXPECT_EQ(res.*field("protocol").text, res.protocol);
  EXPECT_EQ(res.*field("k").count, 50u);
  EXPECT_EQ(res.*field("runs").count, 4u);
  EXPECT_DOUBLE_EQ(column("mean_makespan"), res.makespan.mean);
  EXPECT_DOUBLE_EQ(column("p25"), res.makespan.p25);
  EXPECT_DOUBLE_EQ(column("median"), res.makespan.median);
  EXPECT_DOUBLE_EQ(column("p75"), res.makespan.p75);
  EXPECT_DOUBLE_EQ(column("p95"), res.makespan.p95);
  EXPECT_DOUBLE_EQ(column("mean_ratio"), res.ratio.mean);
  // The percentile spread brackets the extremes the row also carries.
  EXPECT_LE(column("min"), column("p25"));
  EXPECT_LE(column("p25"), column("median"));
  EXPECT_LE(column("median"), column("p75"));
  EXPECT_LE(column("p75"), column("p95"));
  EXPECT_LE(column("p95"), column("max"));
}

TEST(ResultIo, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(read_aggregate_csv(empty), ContractViolation);

  std::stringstream bad_header("who,knows\n1,2\n");
  EXPECT_THROW(read_aggregate_csv(bad_header), ContractViolation);

  std::stringstream bad_cols(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
      "energy_mean,energy_max,spec_hash\nX,1,2\n");
  EXPECT_THROW(read_aggregate_csv(bad_cols), ContractViolation);

  std::stringstream bad_number(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
      "energy_mean,energy_max,spec_hash\nX,abc,2,0,1,1,1,1,1,1,1,1,1,0,0,0,"
      "0,0,h\n");
  EXPECT_THROW(read_aggregate_csv(bad_number), ContractViolation);

  // Superseded formats are rejected loudly, not misread: the
  // pre-percentile 9-column layout, the pre-latency/provenance 13-column
  // layout, and the pre-energy 17-column layout.
  std::stringstream nine_columns(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,max,"
      "mean_ratio\nX,1,2,0,1,1,1,1,1\n");
  EXPECT_THROW(read_aggregate_csv(nine_columns), ContractViolation);
  std::stringstream thirteen_columns(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio\nX,1,2,0,1,1,1,1,1,1,1,1,1\n");
  EXPECT_THROW(read_aggregate_csv(thirteen_columns), ContractViolation);
  std::stringstream seventeen_columns(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
      "spec_hash\nX,1,2,0,1,1,1,1,1,1,1,1,1,0,0,0,h\n");
  EXPECT_THROW(read_aggregate_csv(seventeen_columns), ContractViolation);
}

TEST(ResultIo, RejectsSignedOverflowingAndPaddedIntegers) {
  // strtoull alone would wrap "-1" to 2^64 - 1, saturate an overflow and
  // skip leading blanks: all three must be rejected, not misread.
  for (const std::string k :
       {"-1", "+1", " 1", "18446744073709551616", "99999999999999999999"}) {
    std::stringstream in(
        "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,"
        "median,p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
        "energy_mean,energy_max,spec_hash\nX," +
        k + ",2,0,1,1,1,1,1,1,1,1,1,0,0,0,0,0,h\n");
    EXPECT_THROW(read_aggregate_csv(in), ContractViolation) << k;
  }
}

TEST(ResultIo, RejectsPaddedSignedHexAndOverflowingDoubles) {
  // strtod would skip the blank, accept the sign, read "0x10" as 16 and
  // "1e999" as inf, and a carriage return inside a cell was dropped
  // ("1\r5" read as 15): a double cell must be spelled the way the writer
  // spells numbers.
  for (const std::string cell : {" 1.5", "1.5 ", "+2", "0x10", "-0x1p3",
                                 "1e999", "-1e999", "1\r5"}) {
    std::stringstream in(
        "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,"
        "median,p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
        "energy_mean,energy_max,spec_hash\nX,1,2,0," +
        cell + ",1,1,1,1,1,1,1,1,0,0,0,0,0,h\n");
    EXPECT_THROW(read_aggregate_csv(in), ContractViolation) << cell;
  }
}

TEST(ResultIo, RejectsMoreIncompleteRunsThanRuns) {
  const std::string header =
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
      "energy_mean,energy_max,spec_hash\n";
  std::stringstream all_capped(header +
                               "p,10,5,5,1,1,1,1,1,1,1,1,1,0,0,0,0,0,h\n");
  EXPECT_EQ(read_aggregate_csv(all_capped).size(), 1u);
  // 5 of 2 runs capped is no row the writer can produce.
  std::stringstream too_many(header +
                             "p,10,2,5,1,1,1,1,1,1,1,1,1,0,0,0,0,0,h\n");
  EXPECT_THROW(read_aggregate_csv(too_many), ContractViolation);
}

TEST(ResultIo, RejectsReorderedHeader) {
  // Same column count and the same first and last names, but two middle
  // columns swapped: the rows would be misread, so the header is refused.
  std::stringstream in(
      "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
      "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
      "energy_max,energy_mean,spec_hash\nX,1,2,0,1,1,1,1,1,1,1,1,1,0,0,0,"
      "0,0,h\n");
  EXPECT_THROW(read_aggregate_csv(in), ContractViolation);
}

/// A CSV the program writes itself: a real fair-engine row plus hand rows
/// whose names need quoting.
std::string written_csv() {
  std::vector<AggregateRow> rows;
  rows.push_back(
      {run_fair_experiment(make_known_k_factory(), 50, 4, 1, {}), ""});
  AggregateRow quoted;
  quoted.result.protocol = "name, with \"quotes\"";
  quoted.result.k = 7;
  quoted.result.runs = 3;
  quoted.result.incomplete_runs = 1;
  quoted.result.makespan.mean = 1234.5;
  quoted.result.latency_p99 = 17.25;
  quoted.spec_hash = "0123456789abcdef";
  rows.push_back(quoted);
  AggregateRow plain;
  plain.result.protocol = "Log-Fails Adaptive (2)";
  plain.result.k = 100;
  plain.result.runs = 5;
  rows.push_back(plain);
  std::stringstream out;
  write_aggregate_csv(out, rows);
  return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines,
                       const std::string& eol) {
  std::string text;
  for (const std::string& line : lines) text += line + eol;
  return text;
}

/// One random mutation of a written CSV: truncation, a dropped or
/// duplicated column, junk bytes, a huge, negative or NaN number, CRLF
/// line endings, or empty lines.
std::string mutate(const std::string& text, Xoshiro256& rng) {
  const auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.next_below(bound));
  };
  std::vector<std::string> lines = split_lines(text);
  std::string& line = lines[pick(lines.size())];
  std::vector<std::string> cells{line};
  try {
    cells = parse_csv_line(line);
  } catch (const ContractViolation&) {
    // An earlier round left an open quote: treat the line as one cell.
  }
  const std::size_t cell = pick(cells.size());
  const auto rejoin = [&] {
    std::string joined;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) joined += ',';
      joined += CsvWriter::escape(cells[i]);
    }
    line = joined;
  };
  switch (pick(7)) {
    case 0:  // truncation at any byte
      return text.substr(0, pick(text.size() + 1));
    case 1:  // a dropped column
      cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(cell));
      rejoin();
      break;
    case 2:  // a duplicated column
      cells.insert(cells.begin() + static_cast<std::ptrdiff_t>(cell),
                   cells[cell]);
      rejoin();
      break;
    case 3: {  // junk bytes, quotes and separators included
      static const std::string junk = "\"\",\r\t x-+.e9\x01\xff";
      std::string bytes;
      for (std::size_t i = 0, n = 1 + pick(6); i < n; ++i) {
        bytes += junk[pick(junk.size())];
      }
      line.insert(pick(line.size() + 1), bytes);
      break;
    }
    case 4: {  // a huge, negative, NaN or infinite number
      static const char* const numbers[] = {
          "1e400", "-1e400", "18446744073709551616", "-3", "-0.5",
          "nan", "NaN", "inf", "-inf", "1e-400", "0x1p3", ""};
      cells[cell] = numbers[pick(std::size(numbers))];
      rejoin();
      break;
    }
    case 5:  // CRLF line endings
      return join_lines(lines, "\r\n");
    default:  // empty lines
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       pick(lines.size() + 1)),
                   "");
      break;
  }
  return join_lines(lines, "\n");
}

TEST(ResultIo, MutatedCsvIsRejectedLoudlyOrReadWhole) {
  // Deterministic mutation fuzz over a CSV the program wrote: every input
  // either parses into rows or throws ContractViolation — no other
  // exception, no crash (run under ASan in the sanitizer CI jobs).
  const std::string original = written_csv();
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Xoshiro256 rng = Xoshiro256::stream(20261017, seed);
    std::string text = original;
    for (std::uint64_t round = 0, n = 1 + rng.next_below(3); round < n;
         ++round) {
      if (text.empty()) break;
      text = mutate(text, rng);
    }
    std::istringstream in(text);
    try {
      const std::vector<AggregateRow> rows = read_aggregate_csv(in);
      ++accepted;
      EXPECT_LE(rows.size(), 3u) << "seed " << seed;
    } catch (const ContractViolation&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": " << e.what() << "\n" << text;
    }
  }
  // Both outcomes occur, so the suite exercises the parser's accept and
  // reject paths alike.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ResultIo, RejectsQuotesInsideACell) {
  // A quote may only wrap a whole cell; one anywhere else used to be
  // dropped silently, so a numeric `1"2"` read as 12.
  for (const std::string cell : {"1\"2\"", "\"1\"2", "a\"b"}) {
    EXPECT_THROW(parse_csv_line(cell), ContractViolation) << cell;
    EXPECT_THROW(parse_csv_line("x," + cell + ",y"), ContractViolation)
        << cell;
  }
  const std::string text = written_csv();
  std::vector<std::string> lines = split_lines(text);
  const std::string k_cell = ",100,";  // the plain row's k column
  const std::size_t at = lines[3].find(k_cell);
  ASSERT_NE(at, std::string::npos);
  lines[3].replace(at, k_cell.size(), ",1\"00\",");
  std::istringstream mutated(join_lines(lines, "\n"));
  EXPECT_THROW(read_aggregate_csv(mutated), ContractViolation);

  // Whole quoted cells, escaped quotes included, still read back.
  std::istringstream whole(text);
  const std::vector<AggregateRow> rows = read_aggregate_csv(whole);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1].result.protocol, "name, with \"quotes\"");
  EXPECT_EQ(rows[2].result.k, 100u);
}

TEST(ResultIo, SkipsBlankLines) {
  std::vector<AggregateRow> rows(1);
  rows[0].result.protocol = "X";
  rows[0].result.k = 10;
  std::stringstream ss;
  write_aggregate_csv(ss, rows);
  ss << "\n";
  EXPECT_EQ(read_aggregate_csv(ss).size(), 1u);
}

}  // namespace
}  // namespace ucr
