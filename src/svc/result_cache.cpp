#include "svc/result_cache.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace ucr::svc {

namespace {

namespace fs = std::filesystem;

// A cache record stores each Summary whole, as [count, then these
// statistics], in place of its first field in the schema (kResultFields).
constexpr double Summary::*kSummaryStats[] = {
    &Summary::mean, &Summary::stddev, &Summary::min,
    &Summary::p25,  &Summary::median, &Summary::p75,
    &Summary::p95,  &Summary::max,    &Summary::ci95_halfwidth};

}  // namespace

ResultCache::ResultCache(std::string root) : root_(std::move(root)) {
  UCR_REQUIRE(!root_.empty(), "result cache root path is empty");
  std::error_code ec;
  fs::create_directories(root_, ec);
  UCR_REQUIRE(!ec, "cannot create result cache root '" + root_ +
                       "': " + ec.message());
}

std::string ResultCache::record_path(const std::string& spec_hash,
                                     std::size_t cell_index) const {
  return root_ + "/" + spec_hash + "/cell-" + std::to_string(cell_index) +
         ".json";
}

std::string ResultCache::encode_record(const exp::CellTask& task,
                                       const AggregateResult& result) {
  std::string out = "{\"cache_version\":";
  out += std::to_string(kCacheSchemaVersion);
  out += ",\"spec_hash\":\"" + json::escape(task.spec_hash) + "\"";
  out += ",\"cell\":" + std::to_string(task.cell.index);
  const SummaryColumn* written = nullptr;
  for (const ResultField& field : kResultFields) {
    if (field.summary == nullptr) {
      append_json_member(out, field, result, format_double_shortest);
    } else if (std::exchange(written, field.summary) != field.summary) {
      const Summary& summary = result.*field.summary->member;
      out += ",\"" + std::string(field.summary->key) + "\":[";
      out += std::to_string(summary.count);
      for (const auto stat : kSummaryStats) {
        out += ',' + format_double_shortest(summary.*stat);
      }
      out += ']';
    }
  }
  out += "}\n";
  return out;
}

AggregateResult ResultCache::decode_record(const std::string& text,
                                           const std::string& spec_hash,
                                           std::size_t cell_index,
                                           const std::string& source) {
  json::Value record;
  try {
    record = json::parse(text);
  } catch (const ContractViolation& e) {
    throw ContractViolation(source + ": corrupt cache record — " +
                            e.what());
  }
  UCR_REQUIRE(record.is_object(),
              source + ": corrupt cache record — not a JSON object");
  // The members must be exactly those encode_record writes, in its order.
  const auto& members = record.members();
  std::size_t next = 0;
  const auto member = [&](const char* key) -> const json::Value& {
    UCR_REQUIRE(next < members.size() && members[next].first == key,
                source + ": corrupt cache record — expected \"" + key +
                    "\" as member " + std::to_string(next + 1));
    return members[next++].second;
  };
  const json::Value& version = member("cache_version");
  UCR_REQUIRE(version.as_u64() == kCacheSchemaVersion,
              source + ": stale cache record (cache_version " +
                  version.number_token() + ", this build reads " +
                  std::to_string(kCacheSchemaVersion) +
                  ") — delete the cache directory to recompute");
  UCR_REQUIRE(member("spec_hash").as_string() == spec_hash,
              source + ": cache record spec_hash disagrees with its "
                       "address (corrupt or misplaced record)");
  UCR_REQUIRE(member("cell").as_u64() == cell_index,
              source + ": cache record cell index disagrees with its "
                       "address (corrupt or misplaced record)");
  AggregateResult result;
  const SummaryColumn* read = nullptr;
  for (const ResultField& field : kResultFields) {
    if (field.summary == nullptr) {
      const json::Value& value = member(field.key);
      set_field(field, result,
                field.kind == FieldKind::kString ? value.as_string()
                                                 : value.number_token());
    } else if (std::exchange(read, field.summary) != field.summary) {
      const auto& items = member(field.summary->key).items();
      UCR_REQUIRE(items.size() == 1 + std::size(kSummaryStats),
                  source + ": corrupt cache record — " + field.summary->key +
                      " has " + std::to_string(items.size()) + " entries");
      Summary& summary = result.*field.summary->member;
      summary.count = items[0].as_u64();
      for (std::size_t i = 0; i < std::size(kSummaryStats); ++i) {
        summary.*kSummaryStats[i] = items[i + 1].as_double();
      }
    }
  }
  UCR_REQUIRE(next == members.size(),
              source + ": corrupt cache record — unexpected member \"" +
                  members[next].first + "\"");
  UCR_REQUIRE(result.incomplete_runs <= result.runs,
              source + ": corrupt cache record — more incomplete runs "
                       "than runs");
  return result;
}

std::optional<AggregateResult> ResultCache::load(const std::string& spec_hash,
                                                 std::size_t cell_index) {
  const std::string path = record_path(spec_hash, cell_index);
  std::ifstream in(path);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  UCR_REQUIRE(!in.bad(), path + ": cannot read cache record");
  return decode_record(text.str(), spec_hash, cell_index, path);
}

void ResultCache::store(const exp::CellTask& task,
                        const AggregateResult& result) {
  const fs::path dir = fs::path(root_) / task.spec_hash;
  std::error_code ec;
  fs::create_directories(dir, ec);
  UCR_REQUIRE(!ec, "cannot create cache directory '" + dir.string() +
                       "': " + ec.message());
  // Dot-prefixed temp in the record's own directory (rename must not
  // cross filesystems), unique per process; readers only ever see the
  // complete record appear under its final name.
  const fs::path tmp =
      dir / (".cell-" + std::to_string(task.cell.index) + ".tmp." +
             std::to_string(::getpid()));
  const fs::path final_path =
      dir / ("cell-" + std::to_string(task.cell.index) + ".json");
  {
    std::ofstream out(tmp, std::ios::trunc);
    UCR_REQUIRE(out.is_open(),
                "cannot write cache record '" + tmp.string() + "'");
    out << encode_record(task, result);
    out.flush();
    UCR_REQUIRE(out.good(),
                "failed writing cache record '" + tmp.string() + "'");
  }
  fs::rename(tmp, final_path, ec);
  if (ec) {
    fs::remove(tmp);
    throw ContractViolation("cannot publish cache record '" +
                            final_path.string() + "': " + ec.message());
  }
}

std::size_t ResultCache::cell_count(const std::string& spec_hash) const {
  const fs::path dir = fs::path(root_) / spec_hash;
  std::error_code ec;
  std::size_t count = 0;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("cell-", 0) == 0 &&
        name.size() > 10 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      ++count;
    }
  }
  return count;
}

}  // namespace ucr::svc
