#include "coord/workers.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"

namespace ucr::coord {

namespace {

/// Whitespace-splits `text` into tokens (no quoting — a wrapper script
/// covers argv elements that need spaces).
std::vector<std::string> split_tokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

/// Applies one `key=value` worker option; throws on unknown keys.
void apply_option(WorkerSpec& worker, const std::string& token,
                  const std::string& source, std::set<std::string>& seen) {
  const std::size_t equals = token.find('=');
  UCR_REQUIRE(equals != std::string::npos,
              source + ": malformed worker option '" + token +
                  "' (expected key=value)");
  const std::string key = token.substr(0, equals);
  const std::string value = token.substr(equals + 1);
  UCR_REQUIRE(seen.insert(key).second,
              source + ": duplicate worker option '" + key + "'");
  if (key == "capacity") {
    const std::uint64_t capacity =
        parse_u64_strict(value, source + " option 'capacity'");
    UCR_REQUIRE(capacity >= 1,
                source + ": capacity must be >= 1 (a capacity-0 worker "
                         "could never hold a shard)");
    UCR_REQUIRE(capacity <= std::numeric_limits<unsigned>::max(),
                source + ": capacity is out of range: '" + value + "'");
    worker.capacity = static_cast<unsigned>(capacity);
  } else if (key == "name") {
    UCR_REQUIRE(!value.empty(), source + ": empty worker name");
    // Names become path components (the coordinator's per-worker cache
    // directory), so no separators, no `.`/`..` and nothing a shell or
    // a status line would have to quote.
    const bool safe_chars =
        std::all_of(value.begin(), value.end(), [](char c) {
          return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                 c == '.' || c == '_' || c == '-';
        });
    UCR_REQUIRE(safe_chars && value != "." && value != "..",
                source + ": unsafe worker name '" + value +
                    "' (use letters, digits, '.', '_' and '-'; not '.' "
                    "or '..')");
    worker.name = value;
  } else {
    throw ContractViolation(source + ": unknown worker option '" + key +
                            "' (capacity, name)");
  }
}

}  // namespace

std::vector<WorkerSpec> parse_workers(const std::string& text) {
  std::vector<WorkerSpec> workers;
  std::set<std::string> names;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t newline = text.find('\n', start);
    const std::size_t end =
        newline == std::string::npos ? text.size() : newline;
    std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (newline == std::string::npos && line.empty()) break;

    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::string source = "workers line " + std::to_string(line_no);
    WorkerSpec worker;
    std::set<std::string> seen_options;

    if (line == "local" || line.rfind("local ", 0) == 0) {
      worker.kind = WorkerSpec::Kind::kLocal;
      for (const std::string& token :
           split_tokens(line.substr(std::string("local").size()))) {
        apply_option(worker, token, source, seen_options);
      }
    } else if (line.rfind("exec", 0) == 0) {
      worker.kind = WorkerSpec::Kind::kExec;
      const std::size_t colon = line.find(':');
      UCR_REQUIRE(colon != std::string::npos,
                  source + ": exec worker needs ': <argv prefix>' (e.g. "
                           "'exec: ssh node7 wrapper.sh')");
      for (const std::string& token : split_tokens(
               line.substr(std::string("exec").size(),
                           colon - std::string("exec").size()))) {
        apply_option(worker, token, source, seen_options);
      }
      worker.exec_prefix = split_tokens(line.substr(colon + 1));
      UCR_REQUIRE(!worker.exec_prefix.empty(),
                  source + ": empty exec argv prefix");
    } else {
      throw ContractViolation(
          source + ": unknown worker kind in '" + line +
          "' (a worker line starts with 'local' or 'exec')");
    }

    if (worker.name.empty()) {
      worker.name = (worker.kind == WorkerSpec::Kind::kLocal
                         ? std::string("local-")
                         : std::string("exec-")) +
                    std::to_string(workers.size() + 1);
    }
    UCR_REQUIRE(names.insert(worker.name).second,
                source + ": duplicate worker name '" + worker.name + "'");
    workers.push_back(std::move(worker));
  }
  UCR_REQUIRE(!workers.empty(),
              "workers file declares no workers (every non-comment line is "
              "one worker: 'local' or 'exec: <argv prefix>')");
  return workers;
}

std::vector<WorkerSpec> load_workers_file(const std::string& path) {
  std::ifstream in(path);
  UCR_REQUIRE(in.is_open(), "cannot open workers file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_workers(text.str());
}

}  // namespace ucr::coord
