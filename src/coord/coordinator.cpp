#include "coord/coordinator.hpp"

#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "coord/process.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "sim/resultio.hpp"

namespace ucr::coord {

namespace {

namespace fs = std::filesystem;

/// Splits sink output into lines (no terminators); requires the text to
/// end at a line boundary — a torn final line means a worker died
/// mid-write, which must read as failure, not as a short row count.
std::vector<std::string> split_complete_lines(const std::string& text,
                                              const std::string& source) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t newline = text.find('\n', start);
    UCR_REQUIRE(newline != std::string::npos,
                source + ": output ends mid-line (torn write)");
    lines.push_back(text.substr(start, newline - start));
    start = newline + 1;
  }
  return lines;
}

/// True when one comma-separated field of `row` is exactly `hash`.
bool csv_row_carries_hash(const std::string& row, const std::string& hash) {
  std::size_t start = 0;
  while (start <= row.size()) {
    const std::size_t comma = row.find(',', start);
    const std::size_t end = comma == std::string::npos ? row.size() : comma;
    if (row.compare(start, end - start, hash) == 0) return true;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return false;
}

/// Last `max_bytes` of a file, for failure messages; empty when
/// unreadable.
std::string tail_of_file(const std::string& path,
                         std::size_t max_bytes = 512) {
  std::ifstream in(path);
  if (!in.is_open()) return {};
  std::ostringstream text;
  text << in.rdbuf();
  std::string all = text.str();
  if (all.size() > max_bytes) all.erase(0, all.size() - max_bytes);
  return all;
}

std::string read_whole_file(const std::string& path,
                            const std::string& source) {
  std::ifstream in(path);
  UCR_REQUIRE(in.is_open(), source + ": cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

const char* shard_state_name(ShardStatus::State state) {
  switch (state) {
    case ShardStatus::State::kPending:
      return "pending";
    case ShardStatus::State::kRunning:
      return "running";
    case ShardStatus::State::kDone:
      return "done";
    case ShardStatus::State::kFailed:
      return "failed";
  }
  UCR_CHECK(false, "unreachable shard state");
  return "";
}

void validate_shard_output(const std::string& text, exp::OutputFormat format,
                           std::uint64_t shard_index,
                           std::uint64_t expected_rows,
                           const std::string& hash) {
  const std::string source = "shard " + std::to_string(shard_index);
  const std::vector<std::string> lines = split_complete_lines(text, source);

  std::size_t first_row = 0;
  if (format == exp::OutputFormat::kCsv && shard_index == 0) {
    // The shard-0-only header contract: shard 0 opens with exactly the
    // aggregate CSV header, every other shard starts straight at rows.
    UCR_REQUIRE(!lines.empty() && lines[0] == aggregate_csv_header(),
                source + ": missing or wrong CSV header on shard 0");
    first_row = 1;
  }
  if (format == exp::OutputFormat::kCsv && shard_index != 0) {
    UCR_REQUIRE(lines.empty() || lines[0] != aggregate_csv_header(),
                source + ": unexpected CSV header (only shard 0 emits it)");
  }

  const std::uint64_t rows = lines.size() - first_row;
  UCR_REQUIRE(rows == expected_rows,
              source + ": expected " + std::to_string(expected_rows) +
                  " data rows, found " + std::to_string(rows));

  for (std::size_t i = first_row; i < lines.size(); ++i) {
    const std::string& row = lines[i];
    const bool carries =
        format == exp::OutputFormat::kCsv
            ? csv_row_carries_hash(row, hash)
            : row.find("\"spec_hash\":\"" + hash + "\"") != std::string::npos;
    UCR_REQUIRE(carries, source + " row " + std::to_string(i - first_row) +
                             ": spec_hash mismatch (expected " + hash +
                             ") in: " + row);
  }
}

std::string shard_overlay_text(const std::string& base_path,
                               std::uint64_t index, std::uint64_t count,
                               const std::optional<exp::OutputFormat>& format,
                               unsigned worker_threads) {
  std::string out = "spec_version = 1\n";
  out += "include = " + base_path + "\n";
  out += "shard = " + std::to_string(index) + "/" + std::to_string(count) +
         "\n";
  if (format.has_value()) {
    out += "format = " + std::string(exp::output_format_name(*format)) + "\n";
  }
  if (worker_threads != 0) {
    out += "threads = " + std::to_string(worker_threads) + "\n";
  }
  return out;
}

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {
  UCR_REQUIRE(!options_.workers.empty(),
              "coordinator needs at least one worker");
  UCR_REQUIRE(options_.max_attempts >= 1,
              "coordinator max_attempts must be >= 1");
  UCR_REQUIRE(!options_.work_dir.empty(),
              "coordinator needs a work directory");
  UCR_REQUIRE(options_.heartbeat_seconds > 0,
              "coordinator heartbeat must be positive");

  // Every spec error surfaces here, before a single worker is spawned.
  base_ = exp::load_spec_file(options_.spec_path);
  UCR_REQUIRE(base_.spec.shard.is_whole(),
              "base spec '" + options_.spec_path + "' is already sharded (" +
                  base_.spec.shard.label() +
                  ") — the coordinator owns the shard axis");
  format_ = options_.format.value_or(base_.format);
  UCR_REQUIRE(format_ != exp::OutputFormat::kTable,
              "coordinator output must be a streaming format (csv or "
              "jsonl) — table output cannot be concatenated; set "
              "`format` in the spec or pass --format");

  const auto catalogue = default_catalogue();
  const exp::ExperimentPlan plan = exp::compile(base_.spec, catalogue);
  spec_hash_ = plan.spec_hash;

  std::uint64_t capacity = 0;
  for (const WorkerSpec& worker : options_.workers) {
    capacity += worker.capacity;
  }
  std::uint64_t shards =
      options_.shards == 0 ? capacity : options_.shards;
  if (shards > plan.total_cells) shards = plan.total_cells;
  if (shards == 0) shards = 1;

  // Per-shard expected row counts, straight from the compiler that will
  // govern the workers — the row-coverage check is pinned to the same
  // partition arithmetic the workers execute.
  shard_rows_.reserve(shards);
  shard_states_.reserve(shards);
  for (std::uint64_t i = 0; i < shards; ++i) {
    exp::ExperimentSpec sharded = base_.spec;
    sharded.shard.index = i;
    sharded.shard.count = shards;
    const exp::ExperimentPlan shard_plan = exp::compile(sharded, catalogue);
    shard_rows_.push_back(shard_plan.cells.size());
    ShardStatus status;
    status.index = i;
    status.rows = shard_plan.cells.size();
    shard_states_.push_back(status);
  }
  for (const WorkerSpec& worker : options_.workers) {
    WorkerStatus status;
    status.name = worker.name;
    status.capacity = worker.capacity;
    worker_states_.push_back(status);
  }

  fs::create_directories(options_.work_dir);
}

std::string Coordinator::overlay_path(std::uint64_t shard) const {
  return options_.work_dir + "/shard-" + std::to_string(shard) + ".spec";
}

std::string Coordinator::output_path(std::uint64_t shard,
                                     unsigned attempt) const {
  return options_.work_dir + "/shard-" + std::to_string(shard) +
         ".attempt-" + std::to_string(attempt) + ".out";
}

std::vector<std::string> Coordinator::worker_argv(
    const WorkerSpec& worker, std::uint64_t shard) const {
  std::vector<std::string> argv;
  if (worker.kind == WorkerSpec::Kind::kExec) argv = worker.exec_prefix;
  argv.push_back(options_.cli);
  argv.push_back("--spec=" + overlay_path(shard));
  if (options_.worker_cache) {
    argv.push_back("--cache=" + options_.work_dir + "/cache-" + worker.name);
  }
  return argv;
}

CoordStatus Coordinator::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CoordStatus status;
  status.state = run_state_;
  status.spec_hash = spec_hash_;
  status.shards = shard_states_.size();
  for (const ShardStatus& shard : shard_states_) {
    if (shard.state == ShardStatus::State::kDone) ++status.completed;
    if (shard.state == ShardStatus::State::kRunning) ++status.running;
    if (shard.state == ShardStatus::State::kPending) ++status.pending;
  }
  status.attempts = attempts_total_;
  status.shard_states = shard_states_;
  status.worker_states = worker_states_;
  return status;
}

struct Coordinator::Attempt {
  std::uint64_t shard = 0;
  std::size_t worker = 0;
  pid_t pid = -1;
  unsigned number = 1;  // 1-based attempt count for this shard
  std::string out_path;
  std::uintmax_t last_size = 0;
  std::chrono::steady_clock::time_point last_progress;
};

CoordReport Coordinator::run(std::ostream& out) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    UCR_REQUIRE(!ran_, "Coordinator::run() is single-shot");
    ran_ = true;
    run_state_ = "running";
  }

  const std::uint64_t shards = shard_rows_.size();
  const std::string base_abs =
      fs::absolute(fs::path(options_.spec_path)).string();
  for (std::uint64_t i = 0; i < shards; ++i) {
    std::ofstream overlay(overlay_path(i));
    UCR_REQUIRE(overlay.is_open(),
                "cannot write shard overlay '" + overlay_path(i) + "'");
    overlay << shard_overlay_text(base_abs, i, shards, options_.format,
                                  options_.worker_threads);
  }

  std::deque<std::uint64_t> pending;
  for (std::uint64_t i = 0; i < shards; ++i) pending.push_back(i);
  std::vector<std::set<std::size_t>> failed_on(shards);
  std::vector<std::string> accepted(shards);
  std::vector<Attempt> in_flight;
  CoordReport report;
  report.spec_hash = spec_hash_;
  report.shards = shards;
  std::uint64_t completed = 0;
  std::size_t round_robin = 0;

  const auto kill_in_flight = [&] {
    for (const Attempt& attempt : in_flight) kill_process(attempt.pid);
    in_flight.clear();
  };

  // One attempt ended (exit, bad output, or heartbeat kill). Accept it or
  // requeue the shard; throws — loudly, after killing every other worker —
  // when the shard is out of attempts.
  const auto finish_attempt = [&](const Attempt& attempt,
                                  std::optional<int> exit_code,
                                  const std::string& why) {
    const std::uint64_t shard = attempt.shard;
    std::string failure = why;
    if (failure.empty() && exit_code.has_value() && *exit_code > 1) {
      failure = "worker exited " + std::to_string(*exit_code);
    }
    if (failure.empty()) {
      try {
        validate_shard_output(
            read_whole_file(attempt.out_path,
                            "shard " + std::to_string(shard)),
            format_, shard, shard_rows_[shard], spec_hash_);
      } catch (const ContractViolation& e) {
        failure = e.what();
      }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (failure.empty()) {
      accepted[shard] = attempt.out_path;
      shard_states_[shard].state = ShardStatus::State::kDone;
      shard_states_[shard].exit_code = *exit_code;
      if (*exit_code == 1) report.incomplete_runs = true;
      ++completed;
      return;
    }
    failed_on[shard].insert(attempt.worker);
    ++worker_states_[attempt.worker].failures;
    ++report.retries;
    const std::string worker_name = options_.workers[attempt.worker].name;
    if (shard_states_[shard].attempts >= options_.max_attempts) {
      shard_states_[shard].state = ShardStatus::State::kFailed;
      run_state_ = "failed";
      throw ContractViolation(
          "shard " + std::to_string(shard) + " failed " +
          std::to_string(shard_states_[shard].attempts) + "/" +
          std::to_string(options_.max_attempts) + " attempts; last on "
          "worker '" + worker_name + "': " + failure +
          "\nworker stderr tail:\n" + tail_of_file(attempt.out_path + ".log"));
    }
    shard_states_[shard].state = ShardStatus::State::kPending;
    pending.push_back(shard);
  };

  try {
    while (completed < shards) {
      // Dispatch: capacity-weighted round-robin, preferring workers that
      // have not already failed the shard (retry lands elsewhere whenever
      // the fleet allows it).
      for (std::size_t scan = 0; scan < pending.size();) {
        const std::uint64_t shard = pending[scan];
        std::size_t chosen = options_.workers.size();
        const bool everywhere_failed =
            failed_on[shard].size() >= options_.workers.size();
        for (std::size_t step = 0; step < options_.workers.size(); ++step) {
          const std::size_t candidate =
              (round_robin + step) % options_.workers.size();
          std::lock_guard<std::mutex> lock(mutex_);
          if (worker_states_[candidate].busy >=
              options_.workers[candidate].capacity) {
            continue;
          }
          if (!everywhere_failed && failed_on[shard].count(candidate) > 0) {
            continue;
          }
          chosen = candidate;
          break;
        }
        if (chosen == options_.workers.size()) {
          ++scan;  // no eligible worker free right now; try later shards
          continue;
        }
        round_robin = (chosen + 1) % options_.workers.size();
        pending.erase(pending.begin() +
                      static_cast<std::ptrdiff_t>(scan));

        Attempt attempt;
        attempt.shard = shard;
        attempt.worker = chosen;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          attempt.number = ++shard_states_[shard].attempts;
          ++attempts_total_;
          ++worker_states_[chosen].busy;
          shard_states_[shard].state = ShardStatus::State::kRunning;
          shard_states_[shard].worker = options_.workers[chosen].name;
        }
        ++report.attempts;
        attempt.out_path = output_path(shard, attempt.number);
        attempt.pid =
            spawn_process(worker_argv(options_.workers[chosen], shard),
                          attempt.out_path, attempt.out_path + ".log");
        attempt.last_progress = std::chrono::steady_clock::now();
        in_flight.push_back(std::move(attempt));
      }

      // Reap and heartbeat.
      for (std::size_t i = 0; i < in_flight.size();) {
        Attempt& attempt = in_flight[i];
        const std::optional<int> exit_code = try_wait(attempt.pid);
        std::string why;
        bool ended = exit_code.has_value();
        if (!ended) {
          std::error_code ec;
          const std::uintmax_t size =
              fs::file_size(attempt.out_path, ec);
          const auto now = std::chrono::steady_clock::now();
          if (!ec && size > attempt.last_size) {
            attempt.last_size = size;
            attempt.last_progress = now;
          } else if (std::chrono::duration<double>(now -
                                                   attempt.last_progress)
                         .count() > options_.heartbeat_seconds) {
            kill_process(attempt.pid);
            why = "no output progress for " +
                  std::to_string(options_.heartbeat_seconds) +
                  "s (heartbeat timeout) — worker killed";
            ended = true;
          }
        }
        if (!ended) {
          ++i;
          continue;
        }
        const Attempt finished = std::move(attempt);
        in_flight.erase(in_flight.begin() +
                        static_cast<std::ptrdiff_t>(i));
        {
          std::lock_guard<std::mutex> lock(mutex_);
          --worker_states_[finished.worker].busy;
        }
        finish_attempt(finished, exit_code, why);
      }

      if (completed < shards) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  } catch (...) {
    kill_in_flight();
    std::lock_guard<std::mutex> lock(mutex_);
    run_state_ = "failed";
    throw;
  }

  // Assemble: shard order, already validated at acceptance — the
  // concatenation is byte-identical to the unsharded run by the pinned
  // sharding contract (shard 0 carries the only header).
  for (std::uint64_t i = 0; i < shards; ++i) {
    const std::string text =
        read_whole_file(accepted[i], "shard " + std::to_string(i));
    out << text;
    report.rows += shard_rows_[i];
  }
  out.flush();

  std::lock_guard<std::mutex> lock(mutex_);
  run_state_ = "done";
  return report;
}

}  // namespace ucr::coord
