// sweepbench_trace — the sweep benchmark's in-process passes.
//
// Three modes, all reading the same generated spec file ucr_cli runs:
//
//   reference --spec=F --threads=N --out=FILE
//       The workload's reference output: every (cell, run) through
//       run_sweep_point_run on plain std::threads (no SweepRunner pool, no
//       cache), aggregate_runs per cell, rows written by the same sink
//       class ucr_cli uses. Timed ucr_cli rows must match it byte for byte.
//
//   trace --spec=F --threads=N --out-dir=D [--cache=DIR]
//       The traced pass. Pipeline part: exp::run() with the real sink and
//       ResultCache behind timing decorators. Serial part: the reference
//       path on one thread with a span around every engine run, every
//       aggregate_runs call and every sink emit. Writes D/spans.tsv,
//       D/counters.json, D/pipeline.out and D/reference.out.
//
//   bounds --ks=K1,K2,...
//       One line per k: "k one_fail_bound exp_backon_bound" at the paper's
//       constants (analysis/bounds.hpp), for the static-batched row check.
//
// Spans are kept in memory and written when the pass ends. Each has an id,
// a parent id (0 = none), the grid cell it belongs to (-1 = none), a name
// and steady-clock start/end in nanoseconds.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "core/registry.hpp"
#include "exp/cell_task.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"
#include "svc/result_cache.hpp"

namespace {

namespace fs = std::filesystem;
using ucr::AggregateResult;
using ucr::RunMetrics;
using ucr::exp::CellTask;
using ucr::exp::EngineMode;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t cell = -1;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store; safe to use from pool worker threads.
class Tracer {
 public:
  std::int64_t open(std::string name, std::int64_t parent, std::int64_t cell) {
    const std::int64_t start = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{static_cast<std::int64_t>(spans_.size()) + 1,
                          parent, cell, std::move(name), start, 0});
    return spans_.back().id;
  }

  void close(std::int64_t id) {
    const std::int64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id - 1)].end_ns = end;
  }

  double seconds(std::int64_t id) const {
    const Span& span = spans_[static_cast<std::size_t>(id - 1)];
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    os << "id\tparent\tcell\tname\tstart_ns\tend_ns\n";
    for (const Span& span : spans_) {
      os << span.id << '\t' << span.parent << '\t' << span.cell << '\t'
         << span.name << '\t' << span.start_ns << '\t' << span.end_ns
         << '\n';
    }
  }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::int64_t parent,
             std::int64_t cell = -1)
      : tracer_(tracer),
        id_(tracer == nullptr ? 0
                              : tracer->open(std::move(name), parent, cell)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

const char* engine_kind(EngineMode mode) {
  switch (mode) {
    case EngineMode::kFair:
      return "fair";
    case EngineMode::kBatched:
      return "fair_batched";
    case EngineMode::kNode:
      return "node";
    case EngineMode::kNodeBatched:
      return "node_batched";
  }
  return "unknown";
}

/// Rows exactly as ucr_cli writes them for this spec's format.
std::unique_ptr<ucr::exp::ResultSink> make_row_sink(
    const ucr::exp::SpecFile& file, std::ostream& os) {
  if (file.format == ucr::exp::OutputFormat::kCsv) {
    return std::make_unique<ucr::exp::CsvStreamSink>(os);
  }
  UCR_REQUIRE(file.format == ucr::exp::OutputFormat::kJsonl,
              "benchmark specs must set format = csv or format = jsonl");
  return std::make_unique<ucr::exp::JsonlSink>(os);
}

/// Station-slots of one node-engine run: each delivered message is active
/// for its latency; each undelivered one from its arrival to the makespan.
/// Delivered messages are matched to arrivals through the delivery slots
/// (arrival = delivery slot - latency + 1).
std::uint64_t station_slots(const RunMetrics& m,
                            const ucr::ArrivalPattern& arrivals) {
  std::uint64_t total = 0;
  for (const std::uint64_t latency : m.latencies) total += latency;
  if (m.deliveries == arrivals.size()) return total;
  UCR_REQUIRE(m.delivery_slots.size() == m.latencies.size(),
              "station-slot accounting needs delivery slots and latencies");
  std::vector<std::uint64_t> delivered;
  delivered.reserve(m.latencies.size());
  for (std::size_t j = 0; j < m.latencies.size(); ++j) {
    delivered.push_back(m.delivery_slots[j] + 1 - m.latencies[j]);
  }
  std::sort(delivered.begin(), delivered.end());
  std::size_t d = 0;
  for (const std::uint64_t arrival : arrivals) {  // sorted non-decreasing
    if (d < delivered.size() && delivered[d] == arrival) {
      ++d;
    } else if (arrival < m.slots) {
      total += m.slots - arrival;
    }
  }
  return total;
}

struct EngineCounters {
  std::uint64_t runs = 0;
  std::uint64_t completed = 0;
  std::uint64_t slots = 0;
  std::uint64_t station_slots = 0;
};

/// The pool-free reference path. With a tracer, runs on one thread and
/// records engine/aggregate/emit spans plus per-engine counters.
std::string reference_pass(const ucr::exp::SpecFile& file,
                           const ucr::exp::ExperimentPlan& plan,
                           const std::vector<CellTask>& tasks,
                           unsigned threads, Tracer* tracer,
                           std::int64_t parent,
                           std::map<std::string, EngineCounters>* engines) {
  struct Item {
    std::size_t cell;
    std::uint64_t run;
  };
  std::vector<Item> items;
  std::vector<std::vector<RunMetrics>> metrics(tasks.size());
  std::vector<ucr::SweepPoint> points;
  points.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    metrics[i].resize(tasks[i].point.runs);
    points.push_back(tasks[i].point);
    // Delivery slots identify which arrivals went undelivered; recording
    // them changes no aggregate field.
    if (tracer != nullptr && tasks[i].cell.node_engine() &&
        points[i].options.record_latencies) {
      points[i].options.record_deliveries = true;
    }
    for (std::uint64_t r = 0; r < tasks[i].point.runs; ++r) {
      items.push_back(Item{i, r});
    }
  }

  std::mutex counters_mutex;
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t n = next++; n < items.size(); n = next++) {
      const Item item = items[n];
      const CellTask& task = tasks[item.cell];
      const std::string kind = engine_kind(task.cell.engine);
      RunMetrics m;
      {
        ScopedSpan span(tracer, "sim.engine." + kind, parent,
                        static_cast<std::int64_t>(task.cell.index));
        m = ucr::run_sweep_point_run(points[item.cell], item.run);
      }
      if (engines != nullptr) {
        const ucr::SweepPoint& point = points[item.cell];
        std::uint64_t ss = 0;
        if (task.cell.node_engine() && point.options.record_latencies) {
          ss = station_slots(m, point.arrivals_per_run
                                    ? point.arrivals_per_run(item.run)
                                    : point.arrivals);
        }
        const std::lock_guard<std::mutex> lock(counters_mutex);
        EngineCounters& c = (*engines)[kind];
        ++c.runs;
        c.completed += m.completed ? 1 : 0;
        c.slots += m.slots;
        c.station_slots += ss;
      }
      metrics[item.cell][item.run] = std::move(m);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();

  std::ostringstream out;
  auto sink = make_row_sink(file, out);
  sink->begin(plan);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto cell = static_cast<std::int64_t>(tasks[i].cell.index);
    AggregateResult result;
    {
      ScopedSpan span(tracer, "sim.runner.aggregate", parent, cell);
      result = ucr::aggregate_runs(tasks[i].point.factory.name,
                                   tasks[i].point.cell_k(),
                                   std::move(metrics[i]));
    }
    ScopedSpan span(tracer, "serial.sink.emit", parent, cell);
    sink->emit(tasks[i].cell, result);
  }
  sink->end();
  return out.str();
}

/// ResultSink decorator: an "exp.sink.emit" span per row.
class TimingSink final : public ucr::exp::ResultSink {
 public:
  TimingSink(ucr::exp::ResultSink& inner, Tracer& tracer, std::int64_t parent)
      : inner_(&inner), tracer_(&tracer), parent_(parent) {}

  void begin(const ucr::exp::ExperimentPlan& plan) override {
    inner_->begin(plan);
  }
  void emit(const ucr::exp::CellInfo& cell,
            const AggregateResult& result) override {
    ScopedSpan span(tracer_, "exp.sink.emit", parent_,
                    static_cast<std::int64_t>(cell.index));
    inner_->emit(cell, result);
  }
  void end() override { inner_->end(); }

 private:
  ucr::exp::ResultSink* inner_;
  Tracer* tracer_;
  std::int64_t parent_;
};

/// CellResultStore decorator over svc::ResultCache: a span per load and
/// per store, hit/store counts and record bytes written.
class TimingStore final : public ucr::exp::CellResultStore {
 public:
  TimingStore(ucr::svc::ResultCache& inner, Tracer& tracer,
              std::int64_t parent)
      : inner_(&inner), tracer_(&tracer), parent_(parent) {}

  std::optional<AggregateResult> load(const std::string& spec_hash,
                                      std::size_t cell_index) override {
    std::optional<AggregateResult> result;
    {
      ScopedSpan span(tracer_, "svc.cache.load", parent_,
                      static_cast<std::int64_t>(cell_index));
      result = inner_->load(spec_hash, cell_index);
    }
    ++loads;
    hits += result.has_value() ? 1 : 0;
    return result;
  }

  void store(const CellTask& task, const AggregateResult& result) override {
    {
      ScopedSpan span(tracer_, "svc.cache.store", parent_,
                      static_cast<std::int64_t>(task.cell.index));
      inner_->store(task, result);
    }
    ++stores;
    bytes_written += fs::file_size(
        inner_->record_path(task.spec_hash, task.cell.index));
  }

  std::uint64_t loads = 0;
  std::uint64_t hits = 0;
  std::uint64_t stores = 0;
  std::uint64_t bytes_written = 0;

 private:
  ucr::svc::ResultCache* inner_;
  Tracer* tracer_;
  std::int64_t parent_;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  UCR_REQUIRE(os.good(), "cannot write " + path);
}

struct Compiled {
  ucr::exp::SpecFile file;
  ucr::exp::ExperimentPlan plan;
  std::vector<CellTask> tasks;
};

Compiled load_and_compile(const std::string& spec_path) {
  Compiled c;
  c.file = ucr::exp::load_spec_file(spec_path);
  c.plan = ucr::exp::compile(c.file.spec, ucr::default_catalogue());
  c.tasks = ucr::exp::enumerate_cell_tasks(c.plan);
  return c;
}

std::string required(const ucr::CliArgs& args, const std::string& key) {
  const auto value = args.get(key);
  UCR_REQUIRE(value.has_value(), "--" + key + " is required");
  return *value;
}

int reference_mode(const ucr::CliArgs& args) {
  const Compiled c = load_and_compile(required(args, "spec"));
  const unsigned threads = ucr::parse_thread_count(
      args.get("threads").value_or("1"), "--threads");
  write_file(required(args, "out"), reference_pass(c.file, c.plan, c.tasks,
                                              threads, nullptr, 0, nullptr));
  return 0;
}

int trace_mode(const ucr::CliArgs& args) {
  const std::string out_dir = required(args, "out-dir");
  const unsigned threads = ucr::parse_thread_count(
      args.get("threads").value_or("1"), "--threads");
  Tracer tracer;

  // Pipeline part: what ucr_cli --spec does, with decorated sink/cache.
  const std::int64_t pipeline = tracer.open("exp.pipeline", 0, -1);
  std::int64_t compile_span = 0;
  Compiled c;
  {
    ScopedSpan span(&tracer, "exp.compile", pipeline);
    compile_span = span.id();
    c = load_and_compile(required(args, "spec"));
  }
  std::ofstream rows(out_dir + "/pipeline.out", std::ios::binary);
  auto inner_sink = make_row_sink(c.file, rows);
  std::unique_ptr<ucr::svc::ResultCache> cache;
  std::unique_ptr<TimingStore> store;
  ucr::exp::RunOptions options;
  options.threads = threads;
  const double cpu0 = process_cpu_s();
  std::int64_t run_span = 0;
  {
    ScopedSpan span(&tracer, "exp.run", pipeline);
    run_span = span.id();
    if (const auto dir = args.get("cache")) {
      cache = std::make_unique<ucr::svc::ResultCache>(*dir);
      store = std::make_unique<TimingStore>(*cache, tracer, span.id());
      options.cache = store.get();
    }
    TimingSink sink(*inner_sink, tracer, span.id());
    ucr::exp::run(c.plan, {&sink}, options);
  }
  const double pipeline_cpu = process_cpu_s() - cpu0;
  const std::uint64_t sink_bytes = static_cast<std::uint64_t>(
      static_cast<std::streamoff>(rows.tellp()));
  rows.close();
  tracer.close(pipeline);

  // Serial part: one thread, a span per engine run.
  std::map<std::string, EngineCounters> engines;
  std::int64_t serial = 0;
  std::string reference;
  {
    ScopedSpan span(&tracer, "serial.pass", 0);
    serial = span.id();
    reference =
        reference_pass(c.file, c.plan, c.tasks, 1, &tracer, serial, &engines);
  }
  write_file(out_dir + "/reference.out", reference);
  tracer.write(out_dir + "/spans.tsv");

  std::ofstream json(out_dir + "/counters.json");
  json.precision(17);
  json << "{\"cells\":" << c.tasks.size() << ",\"threads\":" << threads
       << ",\"compile_s\":" << tracer.seconds(compile_span)
       << ",\"pipeline_wall_s\":" << tracer.seconds(run_span)
       << ",\"pipeline_cpu_s\":" << pipeline_cpu
       << ",\"serial_wall_s\":" << tracer.seconds(serial)
       << ",\"sink_bytes\":" << sink_bytes << ",\"cache\":";
  if (store != nullptr) {
    json << "{\"loads\":" << store->loads << ",\"hits\":" << store->hits
         << ",\"stores\":" << store->stores
         << ",\"bytes_written\":" << store->bytes_written << "}";
  } else {
    json << "null";
  }
  json << ",\"engines\":{";
  const char* sep = "";
  for (const auto& [kind, e] : engines) {
    json << sep << "\"" << kind << "\":{\"runs\":" << e.runs
         << ",\"completed\":" << e.completed << ",\"slots\":" << e.slots
         << ",\"station_slots\":" << e.station_slots << "}";
    sep = ",";
  }
  json << "}}\n";
  return 0;
}

int bounds_mode(const ucr::CliArgs& args) {
  std::stringstream list(required(args, "ks"));
  std::cout.precision(17);
  for (std::string item; std::getline(list, item, ',');) {
    const std::uint64_t k = ucr::parse_u64_strict(item, "--ks item");
    std::cout << k << ' ' << ucr::one_fail_bound(2.72, k, 1.0) << ' '
              << ucr::exp_backon_bound(0.366, k) << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    UCR_REQUIRE(argc >= 2, "usage: sweepbench_trace reference|trace|bounds");
    const std::string mode = argv[1];
    const ucr::CliArgs args(argc - 1, argv + 1,
                            {"spec", "threads", "out", "out-dir", "cache",
                             "ks"});
    if (mode == "reference") return reference_mode(args);
    if (mode == "trace") return trace_mode(args);
    if (mode == "bounds") return bounds_mode(args);
    UCR_REQUIRE(false, "unknown mode '" + mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
  }
  return 2;
}
