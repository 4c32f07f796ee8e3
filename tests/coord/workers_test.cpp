// The workers-file contract (coord/workers.hpp): one worker per
// non-comment line, `local` or `exec: <argv prefix>`, with capacity/name
// options — and loud, line-numbered errors on everything malformed, since
// a silently misread fleet description would strand a sweep.
#include "coord/workers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <exception>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ucr::coord {
namespace {

std::string what_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return {};
}

TEST(Workers, ParsesLocalAndExecWithDefaults) {
  const auto workers = parse_workers(
      "# the fleet\n"
      "local\n"
      "local capacity=4 name=big\n"
      "exec name=node7: ssh node7 ucr-wrapper.sh\n"
      "\n"
      "exec: env UCR_THREADS=2\n");
  ASSERT_EQ(workers.size(), 4u);

  EXPECT_EQ(workers[0].kind, WorkerSpec::Kind::kLocal);
  EXPECT_EQ(workers[0].capacity, 1u);
  EXPECT_EQ(workers[0].name, "local-1");
  EXPECT_TRUE(workers[0].exec_prefix.empty());

  EXPECT_EQ(workers[1].capacity, 4u);
  EXPECT_EQ(workers[1].name, "big");

  EXPECT_EQ(workers[2].kind, WorkerSpec::Kind::kExec);
  EXPECT_EQ(workers[2].name, "node7");
  EXPECT_EQ(workers[2].exec_prefix,
            (std::vector<std::string>{"ssh", "node7", "ucr-wrapper.sh"}));

  EXPECT_EQ(workers[3].name, "exec-4");
  EXPECT_EQ(workers[3].exec_prefix,
            (std::vector<std::string>{"env", "UCR_THREADS=2"}));
}

TEST(Workers, ErrorsNameTheLine) {
  const std::string unknown = what_of([] {
    (void)parse_workers("local\n\nslurm: srun\n");
  });
  EXPECT_NE(unknown.find("workers line 3"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("unknown worker kind"), std::string::npos)
      << unknown;

  const std::string option = what_of([] {
    (void)parse_workers("local weight=2\n");
  });
  EXPECT_NE(option.find("workers line 1"), std::string::npos) << option;
  EXPECT_NE(option.find("unknown worker option 'weight'"), std::string::npos)
      << option;
}

TEST(Workers, RejectsMalformedFleets) {
  // Capacity must be a positive integer.
  EXPECT_THROW((void)parse_workers("local capacity=0\n"), ContractViolation);
  EXPECT_THROW((void)parse_workers("local capacity=two\n"),
               ContractViolation);
  // A capacity past `unsigned` used to wrap (2^32 read as 0, 2^32+1 as 1).
  EXPECT_THROW((void)parse_workers("local capacity=4294967296\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_workers("local capacity=4294967297\n"),
               ContractViolation);
  // Duplicate option on one worker; duplicate names across the fleet.
  EXPECT_THROW((void)parse_workers("local capacity=2 capacity=3\n"),
               ContractViolation);
  EXPECT_THROW((void)parse_workers("local name=w\nexec name=w: ssh n\n"),
               ContractViolation);
  // Names are path components: [A-Za-z0-9._-]+, not '.' or '..'.
  for (const char* name : {"../x", "a/b", "/abs", ".", "..", "a\\b",
                           "caf\xc3\xa9", "x$y", "a:b", "\x01"}) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)parse_workers(std::string("local name=") + name),
                 ContractViolation);
  }
  const auto safe = parse_workers("local name=a.b_c-9\nlocal name=...\n");
  ASSERT_EQ(safe.size(), 2u);
  EXPECT_EQ(safe[0].name, "a.b_c-9");
  EXPECT_EQ(safe[1].name, "...");
  // exec needs its argv prefix after ':'.
  EXPECT_THROW((void)parse_workers("exec name=n\n"), ContractViolation);
  EXPECT_THROW((void)parse_workers("exec name=n:\n"), ContractViolation);
  // Options are key=value.
  EXPECT_THROW((void)parse_workers("local fast\n"), ContractViolation);
  // An empty fleet (only comments/blank lines) is an error, not a no-op.
  EXPECT_THROW((void)parse_workers("# nothing\n\n"), ContractViolation);
  EXPECT_THROW((void)parse_workers(""), ContractViolation);
}

TEST(Workers, DefaultNamesCountFleetPositions) {
  const auto workers = parse_workers("exec: a\nlocal\nexec: b\n");
  ASSERT_EQ(workers.size(), 3u);
  EXPECT_EQ(workers[0].name, "exec-1");
  EXPECT_EQ(workers[1].name, "local-2");
  EXPECT_EQ(workers[2].name, "exec-3");
}

/// A fleet file as docs/ORCHESTRATOR.md describes it: both kinds, both
/// options, comments and a blank line.
const char* const kFleet =
    "# the fleet\n"
    "local\n"
    "local capacity=2 name=big   # two shards\n"
    "\n"
    "exec name=node7: ssh node7 ucr-wrapper.sh\n"
    "exec capacity=4: srun --ntasks=1\n";

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl; (nl = text.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(text.substr(start, nl - start));
  }
  lines.push_back(text.substr(start));  // after the last newline
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) text += '\n';
    text += lines[i];
  }
  return text;
}

/// Lines that declare a worker: anything left once the comment and the
/// surrounding whitespace are stripped.
std::size_t worker_lines(const std::string& text) {
  std::size_t count = 0;
  for (std::string line : split_lines(text)) {
    line.resize(std::min(line.size(), line.find('#')));
    for (const char c : line) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        ++count;
        break;
      }
    }
  }
  return count;
}

/// A worker name that is one plain path component.
bool is_safe_name(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' &&
        c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

/// Puts `option` right after the worker kind of `line` (or in front of a
/// line without one).
void insert_option(std::string& line, const std::string& option) {
  for (const std::string kind : {"local", "exec"}) {
    if (line.rfind(kind, 0) == 0) {
      line.insert(kind.size(), " " + option);
      return;
    }
  }
  line.insert(0, option + " ");
}

/// One random mutation of a fleet file: truncation, junk bytes, a
/// duplicated, unknown or `=`-less option, a zero, negative, huge or
/// overflowing capacity, a duplicate or unsafe name, a duplicated line,
/// CRLF line ends or blank lines.
std::string mutate(const std::string& text, Xoshiro256& rng) {
  const auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.next_below(bound));
  };
  const auto pick_of = [&pick](const std::vector<std::string>& options) {
    return options[pick(options.size())];
  };
  std::vector<std::string> lines = split_lines(text);
  std::string& line = lines[pick(lines.size())];
  switch (pick(11)) {
    case 0:  // truncation
      return text.substr(0, pick(text.size() + 1));
    case 1: {  // junk bytes
      const std::string junk("\0\xff\x01=:# \t\rx,\"", 13);
      std::string out = text;
      for (std::size_t n = 1 + pick(4); n > 0; --n) {
        out.insert(pick(out.size() + 1), 1, junk[pick(junk.size())]);
      }
      return out;
    }
    case 2:  // duplicated option
      insert_option(line, pick_of({"capacity=3", "name=again"}));
      insert_option(line, pick_of({"capacity=1", "name=again"}));
      break;
    case 3:  // unknown option
      insert_option(line, pick_of({"weight=2", "Capacity=2", "=3"}));
      break;
    case 4:  // option without '='
      insert_option(line, pick_of({"fast", "capacity", "name"}));
      break;
    case 5:  // zero, negative, huge or overflowing capacity
      insert_option(line,
                    "capacity=" + pick_of({"0", "-1", "+2", "4294967295",
                                           "4294967296", "4294967297",
                                           "18446744073709551615",
                                           "18446744073709551616",
                                           "99999999999999999999999"}));
      break;
    case 6:  // duplicate name
      insert_option(line, "name=" + pick_of({"big", "node7", "local-1",
                                             "exec-5", "exec-4"}));
      break;
    case 7: {  // duplicated line
      const std::string copy = line;
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       pick(lines.size() + 1)),
                   copy);
      break;
    }
    case 8: {  // CRLF line ends
      std::string out;
      for (const char c : text) {
        if (c == '\n') out += '\r';
        out += c;
      }
      return out;
    }
    case 10:  // unsafe name: a path, '.', '..' or a character to quote
      insert_option(line, "name=" + pick_of({"../x", "a/b", "/tmp", ".",
                                             "..", "x$y", "a\\b", "n;m",
                                             "caf\xc3\xa9"}));
      break;
    default:  // blank lines
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       pick(lines.size() + 1)),
                   pick_of({"", "   ", "\t", "\r"}));
      break;
  }
  return join_lines(lines);
}

TEST(Workers, MutatedFileIsRejectedLoudlyOrParsedWhole) {
  // Deterministic mutation fuzz: every input either parses into one valid
  // worker per worker line, or throws ContractViolation naming its line —
  // no other exception, no crash, no silently dropped or misread worker
  // (run under ASan+UBSan in the sanitizer CI jobs).
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Xoshiro256 rng = Xoshiro256::stream(20261019, seed);
    std::string text = kFleet;
    for (std::uint64_t round = 0, n = 1 + rng.next_below(3); round < n;
         ++round) {
      text = mutate(text, rng);
    }
    try {
      const std::vector<WorkerSpec> workers = parse_workers(text);
      ++accepted;
      EXPECT_EQ(workers.size(), worker_lines(text)) << "seed " << seed;
      std::set<std::string> names;
      for (const WorkerSpec& worker : workers) {
        EXPECT_GE(worker.capacity, 1u) << "seed " << seed;
        EXPECT_FALSE(worker.name.empty()) << "seed " << seed;
        EXPECT_TRUE(is_safe_name(worker.name))
            << "seed " << seed << ": '" << worker.name << "'";
        EXPECT_TRUE(names.insert(worker.name).second) << "seed " << seed;
        EXPECT_EQ(worker.exec_prefix.empty(),
                  worker.kind == WorkerSpec::Kind::kLocal)
            << "seed " << seed;
      }
    } catch (const ContractViolation& e) {
      ++rejected;
      const std::string what = e.what();
      // Only an empty fleet has no line to blame.
      EXPECT_TRUE(what.find("workers line ") != std::string::npos ||
                  (what.find("declares no workers") != std::string::npos &&
                   worker_lines(text) == 0))
          << "seed " << seed << ": " << what << "\n" << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": " << e.what() << "\n" << text;
    }
  }
  // Both outcomes occur, so the suite exercises the accept and reject
  // paths alike.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace ucr::coord
