// ucr_cli — one command-line driver for the whole library. The canonical
// experiment description is the textual spec (src/exp/spec_io.hpp):
// --spec=FILE loads one, every other flag sets the same field of the
// ExperimentSpec directly, and explicit flags win over the file — so a
// versioned spec plus a one-flag override (a different shard, a different
// format) is the normal cross-machine invocation. --dump-spec prints the
// canonical merged text instead of running, which is also how a flag
// invocation gets turned into a spec file in the first place. Either way
// the CLI is just spec construction + the compile/run/sink pipeline, so a
// sweep typed here, a spec file, a bench harness and a sharded
// cross-machine run all execute the exact same code path.
//
// Examples:
//   ucr_cli --list
//   ucr_cli --spec=specs/fig1.spec
//   ucr_cli --spec=specs/fig1.spec --shard=2/4
//   ucr_cli --protocols=paper --kmax=100000 --format=csv --dump-spec
//   ucr_cli --protocol="One-Fail Adaptive" --k=100000 --runs=10
//   ucr_cli --protocols=paper --kmax=1000000 --shard=0/4 --format=csv
//   ucr_cli --protocol="LogLog-Iterated Back-off" --k=500
//           --arrivals=poisson --lambda=0.1 --runs=5 --format=jsonl
//   ucr_cli --protocol="Exp Back-on/Back-off" --k=100000
//           --arrivals=poisson --lambda=0.02 --engine=node_batched
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/sink.hpp"
#include "exp/spec_io.hpp"
#include "svc/client.hpp"
#include "svc/result_cache.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/socket.hpp"

namespace {

int list_protocols() {
  std::cout << "Available protocols:\n";
  for (const auto& p : ucr::default_catalogue()) {
    std::cout << "  " << p.name << "\n";
  }
  return 0;
}

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: ucr_cli --spec=FILE [overriding flags]\n"
         "       ucr_cli --protocol=<name> [options]\n"
         "       ucr_cli --protocols=<a,b|paper|all> [options]\n"
         "       ucr_cli --list\n\n"
         "spec file front end:\n"
         "  --spec=FILE       load a textual ExperimentSpec (the key=value\n"
         "                    format of src/exp/spec_io.hpp; the shipped\n"
         "                    sweeps live in specs/). Explicit flags below\n"
         "                    override the file's values (flag wins).\n"
         "  --dump-spec       print the canonical merged spec text and\n"
         "                    exit — turns any flag invocation into a\n"
         "                    versionable spec file\n"
         "  --hash-spec       print the merged spec's shard-invariant\n"
         "                    spec_hash (the provenance key stamped on\n"
         "                    every archived row) and exit — what CI uses\n"
         "                    to tag benchmark trajectory entries\n"
         "spec axes (each flag sets one field of the ExperimentSpec):\n"
         "  --protocol=NAME   one protocol (case-insensitive; typos get a\n"
         "                    did-you-mean hint — try --list)\n"
         "  --protocols=LIST  comma-separated names, or 'paper' (the five\n"
         "                    evaluated protocols) or 'all'\n"
         "  --k=N             single batch size (default 1000)\n"
         "  --ks=LIST         comma-separated k grid (e.g. 10,100,1000)\n"
         "  --kmax=N          the paper's sweep: powers of ten up to N\n"
         "  --runs=N          independent runs per cell (default 10)\n"
         "  --seed=N          base seed (default 2011)\n"
         "  --engine=fair|batched|node|node_batched\n"
         "                    aggregate engine (default), the batched fast\n"
         "                    paths (paper-scale k and long dynamic\n"
         "                    workloads; same law of outcomes, different\n"
         "                    RNG path; batched also accelerates non-batch\n"
         "                    cells via the batched per-station engine), or\n"
         "                    the exact/batched per-station engine\n"
         "  --arrivals=LIST   per-cell workloads, comma-separated (commas\n"
         "                    inside parentheses group arguments): bare\n"
         "                    batch|poisson|burst shaped by the flags\n"
         "                    below, or any spec-file arrival expression —\n"
         "                    poisson(<lambda>), burst(<bursts>,<gap>),\n"
         "                    schedule(<slot>,...), mmpp(<hi>,<lo>,<dwell>),\n"
         "                    pareto(<alpha>,<xm>) (docs/SCENARIOS.md;\n"
         "                    default batch; non-batch cells run\n"
         "                    per-station)\n"
         "  --lambda=X        Poisson arrival rate in msg/slot (default\n"
         "                    0.1; fresh pattern per run)\n"
         "  --bursts=N --gap=N  burst workload shape (default 4 bursts,\n"
         "                    gap 64)\n"
         "  --channel=LIST    per-cell channel models, comma-separated\n"
         "                    (parentheses group): clean, capture(<p>),\n"
         "                    jamming(<q>), jam_burst(<period>,<len>)\n"
         "                    (default clean; non-clean cells run on the\n"
         "                    exact node engine — docs/SCENARIOS.md)\n"
         "  --max-slots=N     slot cap (default: engine default)\n"
         "  --shard=i/N       run shard i of N (contiguous cell block of\n"
         "                    the flattened grid; concatenating the CSV or\n"
         "                    JSONL output of shards 0..N-1 is\n"
         "                    byte-identical to the unsharded sweep)\n"
         "execution / output:\n"
         "  --threads=N       sweep worker threads, N >= 1 (default: all\n"
         "                    cores; results are identical for every N)\n"
         "  --format=table|csv|jsonl   output format (default table)\n"
         "  --csv=1           alias for --format=csv\n"
         "cached / resumable execution (docs/SERVICE.md):\n"
         "  --cache=DIR       attach the on-disk result cache: cells\n"
         "                    already banked under the spec's provenance\n"
         "                    key replay byte-identically instead of\n"
         "                    recomputing, fresh cells are banked before\n"
         "                    they are emitted — kill + rerun = resume\n"
         "  --list-cells      print the compiled grid (cell index,\n"
         "                    protocol, k, arrivals, channel, engine)\n"
         "                    without running anything\n"
         "  --abort-after-cells=N  fault injection for resume testing:\n"
         "                    fail loudly once N cells have been emitted\n"
         "                    (env spelling UCR_ABORT_AFTER_CELLS=N; with\n"
         "                    UCR_ABORT_MODE=kill the process hard-exits\n"
         "                    137 instead of throwing — a worker machine\n"
         "                    dying mid-shard, for coordinator tests)\n"
         "daemon client (needs a running ucr_servd; docs/SERVICE.md):\n"
         "  --serve --socket=PATH [--cache=DIR]\n"
         "                    run the sweep daemon in-process (the\n"
         "                    standalone spelling is ucr_servd)\n"
         "  --submit=FILE --socket=PATH [--wait]\n"
         "                    submit a spec file; --wait streams the\n"
         "                    job's JSONL rows to stdout (byte-identical\n"
         "                    to --spec=FILE --format=jsonl) and prints\n"
         "                    a summary to stderr, otherwise the job id\n"
         "                    is printed and the job runs detached\n"
         "  --status=JOB --socket=PATH    print a job's progress\n"
         "  --cancel=JOB --socket=PATH    stop a job at its next cell\n"
         "  --json            with --status/--cancel: print the daemon's\n"
         "                    JSON response verbatim instead of the\n"
         "                    human summary (docs/SERVICE.md fields)\n"
         "  --shutdown --socket=PATH      stop the daemon\n";
  return 2;
}

/// Whole file as a string; ContractViolation naming the path on failure.
std::string read_file(const std::string& path) {
  std::ifstream in(path);
  UCR_REQUIRE(in.is_open(), "cannot open spec file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  UCR_REQUIRE(!in.bad(), "cannot read spec file '" + path + "'");
  return text.str();
}

/// "job job-2 done: 12/12 cells, 12 cache hits (100%)" — the CI service
/// smoke greps the percentage, so keep the shape stable.
std::string job_summary(const std::string& id, const std::string& state,
                        std::uint64_t completed, std::uint64_t total,
                        std::uint64_t cache_hits) {
  std::string line = "job " + id + " " + state + ": " +
                     std::to_string(completed) + "/" + std::to_string(total) +
                     " cells, " + std::to_string(cache_hits) + " cache hits";
  if (total > 0) {
    line += " (" + std::to_string(cache_hits * 100 / total) + "%)";
  }
  return line;
}

/// The summary line of a status/cancel response.
std::string job_summary(const ucr::json::Value& response) {
  return job_summary(response.at("job").as_string(),
                     response.at("state").as_string(),
                     response.at("completed").as_u64(),
                     response.at("total").as_u64(),
                     response.at("cache_hits").as_u64());
}

/// Daemon and client modes (--serve / --submit / --status / --cancel /
/// --shutdown), all addressed by --socket.
int run_client(const ucr::CliArgs& args) {
  const auto socket_path = args.get("socket");
  if (!socket_path.has_value()) {
    return usage("daemon and client modes need --socket=PATH");
  }

  if (args.get_bool("serve", false)) {
    ucr::svc::SweepService::Options options;
    if (const auto cache = args.get("cache")) options.cache_dir = *cache;
    options.threads = ucr::thread_count_option(args, "UCR_THREADS");
    ucr::svc::SweepService service(options);
    const int listen_fd = ucr::svc::listen_unix(*socket_path);
    std::cerr << "ucr_cli: serving on " << *socket_path << "\n";
    ucr::svc::run_server(listen_fd, *socket_path, service);
    service.stop();
    return 0;
  }
  if (args.get_bool("shutdown", false)) {
    ucr::svc::request(*socket_path, ucr::svc::simple_request("shutdown"));
    std::cerr << "ucr_cli: daemon at " << *socket_path
              << " shutting down\n";
    return 0;
  }
  // --json prints the daemon's response line verbatim (machine-readable;
  // the field names are pinned by tests and docs/SERVICE.md).
  const bool raw_json = args.get_bool("json", false);
  if (const auto job = args.get("status")) {
    const std::string line = ucr::svc::job_request("status", *job);
    if (raw_json) {
      std::cout << ucr::svc::request_raw(*socket_path, line) << "\n";
    } else {
      std::cout << job_summary(ucr::svc::request(*socket_path, line)) << "\n";
    }
    return 0;
  }
  if (const auto job = args.get("cancel")) {
    const std::string line = ucr::svc::job_request("cancel", *job);
    if (raw_json) {
      std::cout << ucr::svc::request_raw(*socket_path, line) << "\n";
    } else {
      std::cout << job_summary(ucr::svc::request(*socket_path, line)) << "\n";
    }
    return 0;
  }

  const auto spec_file = args.get("submit");
  UCR_CHECK(spec_file.has_value(), "run_client dispatched without a mode");
  const auto response = ucr::svc::request(
      *socket_path, ucr::svc::submit_request(read_file(*spec_file)));
  const std::string id = response.at("job").as_string();
  if (!args.get_bool("wait", false)) {
    std::cerr << "ucr_cli: submitted " << id << " ("
              << response.at("total").number_token() << " cells, spec_hash "
              << response.at("spec_hash").as_string() << ")\n";
    std::cout << id << "\n";
    return 0;
  }
  // --wait: only result rows on stdout, so the streamed output can be
  // byte-compared against a direct `--spec=FILE --format=jsonl` run.
  const ucr::svc::StreamResult result = ucr::svc::stream_job(
      *socket_path, id,
      [](const std::string& row) { std::cout << row << "\n"; });
  std::cerr << "ucr_cli: "
            << job_summary(id, result.state, result.completed, result.total,
                           result.cache_hits);
  if (!result.error.empty()) std::cerr << " — " << result.error;
  std::cerr << "\n";
  return result.state == "done" ? 0 : 1;
}

/// Fault-injection sink for resume and retry tests: placed ahead of the
/// output sinks, it fails when the (N+1)th cell is emitted, so exactly N
/// rows reach the output while cell N itself is already banked in the
/// cache (run() stores before emitting). Two failure modes: `throw`
/// (default) fails loudly through the normal error path; `kill`
/// hard-exits with status 137 — the status a SIGKILLed process reports —
/// without unwinding, which is how the coordinator tests simulate a
/// worker machine dying mid-shard (docs/ORCHESTRATOR.md).
class AbortSink final : public ucr::exp::ResultSink {
 public:
  AbortSink(std::uint64_t limit, bool kill) : limit_(limit), kill_(kill) {}
  void emit(const ucr::exp::CellInfo&,
            const ucr::AggregateResult&) override {
    if (emitted_ >= limit_ && kill_) {
      std::cout.flush();  // emitted rows are real output; the death is not
      std::_Exit(137);
    }
    UCR_REQUIRE(emitted_ < limit_,
                "aborting after " + std::to_string(limit_) +
                    " cells (--abort-after-cells fault injection)");
    ++emitted_;
  }

 private:
  std::uint64_t limit_;
  bool kill_;
  std::uint64_t emitted_ = 0;
};

/// The abort-injection configuration: the --abort-after-cells flag, or —
/// so a coordinator worker can be made to die mid-shard without any
/// change to the argv the coordinator builds — the UCR_ABORT_AFTER_CELLS
/// environment variable. UCR_ABORT_MODE selects `throw` (default) or
/// `kill` (see AbortSink).
std::optional<AbortSink> make_abort_sink(const ucr::CliArgs& args) {
  std::optional<std::uint64_t> limit;
  if (args.get("abort-after-cells")) {
    limit = args.get_u64("abort-after-cells", 0);
  } else if (const char* env = std::getenv("UCR_ABORT_AFTER_CELLS");
             env != nullptr && *env != '\0') {
    limit = ucr::parse_u64_strict(env, "UCR_ABORT_AFTER_CELLS");
  }
  if (!limit.has_value()) return std::nullopt;
  bool kill = false;
  if (const char* mode = std::getenv("UCR_ABORT_MODE");
      mode != nullptr && *mode != '\0') {
    const std::string value = mode;
    UCR_REQUIRE(value == "throw" || value == "kill",
                "unknown UCR_ABORT_MODE '" + value + "' (throw, kill)");
    kill = value == "kill";
  }
  return AbortSink(*limit, kill);
}

/// Totals the capped (incomplete) runs of a sweep — the exit status is 1
/// iff any run hit the slot cap — and names each capped cell on stderr,
/// one line per cell, so stdout keeps exactly the rows.
class CountingSink final : public ucr::exp::ResultSink {
 public:
  void emit(const ucr::exp::CellInfo& cell,
            const ucr::AggregateResult& result) override {
    if (result.incomplete_runs == 0) return;
    incomplete_ += result.incomplete_runs;
    std::cerr << "ucr_cli: capped cell: protocol=" << cell.protocol
              << " k=" << cell.k << " arrival=" << cell.arrival.label()
              << " channel=" << cell.channel.label()
              << " incomplete_runs=" << result.incomplete_runs << "/"
              << result.runs << "\n";
  }
  std::uint64_t incomplete() const { return incomplete_; }

 private:
  std::uint64_t incomplete_ = 0;
};

/// Splits a comma-separated list, rejecting empty items.
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    UCR_REQUIRE(end > start, "empty item in list '" + text + "'");
    items.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

/// Splits a comma-separated list whose items may carry parenthesized
/// argument lists — "batch,mmpp(0.5,0.01,100)" is two items, not four.
/// Only commas at parenthesis depth zero separate items.
std::vector<std::string> split_expr_list(const std::string& text) {
  std::vector<std::string> items;
  std::string current;
  int depth = 0;
  for (const char ch : text) {
    if (ch == '(') ++depth;
    if (ch == ')') --depth;
    UCR_REQUIRE(depth >= 0, "unbalanced ')' in list '" + text + "'");
    if (ch == ',' && depth == 0) {
      UCR_REQUIRE(!current.empty(), "empty item in list '" + text + "'");
      items.push_back(std::move(current));
      current.clear();
    } else {
      current += ch;
    }
  }
  UCR_REQUIRE(depth == 0, "unbalanced '(' in list '" + text + "'");
  UCR_REQUIRE(!current.empty(), "empty item in list '" + text + "'");
  items.push_back(std::move(current));
  return items;
}

int run_spec(const ucr::CliArgs& args) {
  const auto protocols = ucr::default_catalogue();

  // Layer 1: the spec file, when given (else a default-initialized spec).
  ucr::exp::SpecFile file;
  const bool from_file = args.get("spec").has_value();
  if (from_file) {
    file = ucr::exp::load_spec_file(*args.get("spec"));
  }
  ucr::exp::ExperimentSpec& spec = file.spec;

  // Layer 2: explicit flags override the file, field by field.

  // Protocol axis: either protocol flag replaces the file's selection.
  if (args.get("protocol") || args.get("protocols")) {
    spec.protocol_names.clear();
    spec.protocols.clear();
    if (const auto one = args.get("protocol")) {
      spec.with_protocol(*one);
    }
    if (const auto many = args.get("protocols")) {
      if (*many == "paper") {
        for (const auto& p : ucr::paper_protocols()) {
          spec.with_protocol(p.name);
        }
      } else if (*many == "all") {
        for (const auto& p : protocols) spec.with_protocol(p.name);
      } else {
        for (const auto& name : split_list(*many)) spec.with_protocol(name);
      }
    }
  }

  // k axis: --ks wins over --kmax wins over --k; the classic default
  // k = 1000 applies only when neither a flag nor the file set a grid.
  if (const auto ks = args.get("ks")) {
    spec.ks.clear();
    spec.k_max = 0;
    for (const auto& item : split_list(*ks)) {
      spec.ks.push_back(ucr::parse_u64_strict(item, "--ks item"));
    }
  } else if (args.get("kmax")) {
    spec.with_paper_ks(args.get_u64("kmax", 0));
  } else if (args.get("k")) {
    spec.ks = {args.get_u64("k", 1000)};
    spec.k_max = 0;
  } else if (!from_file && spec.ks.empty() && spec.k_max == 0) {
    spec.ks = {1000};
  }

  if (args.get("runs")) spec.runs = args.get_u64("runs", spec.runs);
  if (args.get("seed")) spec.seed = args.get_u64("seed", spec.seed);

  if (const auto engine = args.get("engine")) {
    if (*engine == "fair") {
      spec.engine = ucr::exp::EngineMode::kFair;
    } else if (*engine == "batched") {
      spec.engine = ucr::exp::EngineMode::kBatched;
    } else if (*engine == "node") {
      spec.engine = ucr::exp::EngineMode::kNode;
    } else if (*engine == "node_batched") {
      spec.engine = ucr::exp::EngineMode::kNodeBatched;
    } else {
      return usage("unknown --engine (fair, batched, node or node_batched)");
    }
  }

  // Arrival axis: an explicit --arrivals list replaces the file's cells;
  // --lambda/--bursts/--gap shape those flag-built cells. Without
  // --arrivals the shape flags have nothing to apply to (a file carries
  // each cell's parameters inline) — fail loudly rather than let a user
  // believe they re-parameterized the file's cells.
  if (const auto arrivals = args.get("arrivals")) {
    spec.arrivals.clear();
    const double lambda = args.get_double("lambda", 0.1);
    const std::uint64_t bursts = args.get_u64("bursts", 4);
    const std::uint64_t gap = args.get_u64("gap", 64);
    for (const auto& kind : split_expr_list(*arrivals)) {
      if (kind == "batch") {
        spec.with_arrival(ucr::exp::ArrivalSpec::batch());
      } else if (kind == "poisson") {
        spec.with_arrival(ucr::exp::ArrivalSpec::poisson(lambda));
      } else if (kind == "burst") {
        spec.with_arrival(ucr::exp::ArrivalSpec::burst(bursts, gap));
      } else {
        // Full spec-file expression syntax — schedule(...), mmpp(...),
        // pareto(...), or an explicitly parameterized poisson/burst.
        spec.with_arrival(ucr::exp::ArrivalSpec::parse(kind));
      }
    }
  } else if (args.get("lambda") || args.get("bursts") || args.get("gap")) {
    return usage(
        "--lambda/--bursts/--gap only shape cells built by --arrivals; to "
        "override a spec file's arrival cells, restate the list (e.g. "
        "--arrivals=poisson --lambda=0.9)");
  }

  // Channel axis: an explicit --channel list replaces the file's cells.
  if (const auto channel = args.get("channel")) {
    spec.channels.clear();
    for (const auto& item : split_expr_list(*channel)) {
      spec.with_channel(ucr::ChannelModel::parse(item));
    }
  }

  if (args.get("max-slots")) {
    spec.engine_options.max_slots = args.get_u64("max-slots", 0);
  }
  if (const auto shard = args.get("shard")) {
    spec.shard = ucr::exp::ShardSpec::parse(*shard);
  }
  // An empty UCR_THREADS means unset (a CI script's THREADS=$N with N
  // undefined must not wipe a file's pinned thread count).
  const char* threads_env = std::getenv("UCR_THREADS");
  if (args.get("threads") ||
      (threads_env != nullptr && *threads_env != '\0')) {
    file.threads = ucr::thread_count_option(args, "UCR_THREADS");
  }
  if (const auto format = args.get("format")) {
    if (*format == "table") {
      file.format = ucr::exp::OutputFormat::kTable;
    } else if (*format == "csv") {
      file.format = ucr::exp::OutputFormat::kCsv;
    } else if (*format == "jsonl") {
      file.format = ucr::exp::OutputFormat::kJsonl;
    } else {
      return usage("unknown --format (table, csv or jsonl)");
    }
  } else if (args.get_bool("csv", false)) {
    file.format = ucr::exp::OutputFormat::kCsv;
  }

  // The merged description is now final; --dump-spec prints its canonical
  // text (re-loadable with --spec) instead of running it.
  if (args.get_bool("dump-spec", false)) {
    std::cout << ucr::exp::to_text(file);
    return 0;
  }
  if (args.get_bool("hash-spec", false)) {
    std::cout << ucr::exp::spec_hash(spec) << "\n";
    return 0;
  }

  if (spec.protocol_names.empty() && spec.protocols.empty()) {
    return usage("--protocol, --protocols or a --spec file naming "
                 "protocols is required (try --list)");
  }

  const auto plan = ucr::exp::compile(spec, protocols);

  // --list-cells: the flattened grid this plan would run (this shard's
  // cells, full-grid indices), straight from the compiled plan — the
  // address book for cache records and daemon job progress.
  if (args.get_bool("list-cells", false)) {
    std::cout << "spec_hash = " << plan.spec_hash << "\n";
    std::cout << plan.cells.size() << " cells";
    if (!plan.shard.is_whole()) {
      std::cout << " (shard " << plan.shard.label() << " of "
                << plan.total_cells << " total)";
    }
    std::cout << ":\n\n";
    ucr::Table table(
        {"cell", "protocol", "k", "arrivals", "channel", "engine"});
    for (const auto& cell : plan.cells) {
      table.add_row({std::to_string(cell.index), cell.protocol,
                     std::to_string(cell.k), cell.arrival.label(),
                     cell.channel.label(),
                     ucr::exp::engine_mode_name(cell.engine)});
    }
    table.print(std::cout);
    return 0;
  }

  ucr::exp::RunOptions run_options;
  run_options.threads = file.threads;
  std::unique_ptr<ucr::svc::ResultCache> cache;
  if (const auto cache_dir = args.get("cache")) {
    cache = std::make_unique<ucr::svc::ResultCache>(*cache_dir);
    run_options.cache = cache.get();
  }
  std::optional<AbortSink> abort_sink = make_abort_sink(args);

  // Streaming formats go straight to the sink — constant memory, rows
  // appear as the grid prefix completes.
  if (file.format != ucr::exp::OutputFormat::kTable) {
    ucr::exp::CsvStreamSink csv(std::cout);
    ucr::exp::JsonlSink jsonl(std::cout);
    ucr::exp::ResultSink* sink =
        file.format == ucr::exp::OutputFormat::kCsv
            ? static_cast<ucr::exp::ResultSink*>(&csv)
            : &jsonl;
    CountingSink counting;
    std::vector<ucr::exp::ResultSink*> sinks;
    if (abort_sink.has_value()) sinks.push_back(&*abort_sink);
    sinks.push_back(sink);
    sinks.push_back(&counting);
    ucr::exp::run(plan, sinks, run_options);
    return counting.incomplete() == 0 ? 0 : 1;
  }

  ucr::exp::MemorySink memory;
  CountingSink counting;
  std::vector<ucr::exp::ResultSink*> sinks;
  if (abort_sink.has_value()) sinks.push_back(&*abort_sink);
  sinks.push_back(&memory);
  sinks.push_back(&counting);
  ucr::exp::run(plan, sinks, run_options);
  const auto& results = memory.results();
  const auto& cells = memory.cells();
  const std::uint64_t incomplete = counting.incomplete();

  if (results.size() == 1) {
    // Single cell: the familiar one-experiment report.
    const auto& result = results.front();
    const auto& cell = cells.front();
    std::cout << result.protocol << " on k = " << result.k << " ("
              << spec.runs << " runs, seed " << spec.seed << ", "
              << ucr::exp::engine_mode_name(cell.engine) << " engine, "
              << cell.arrival.label() << " arrivals, "
              << cell.channel.label() << " channel";
    if (!plan.shard.is_whole()) std::cout << ", shard " << plan.shard.label();
    std::cout << ")\n\n";
    ucr::Table table({"metric", "value"});
    table.add_row(
        {"mean makespan", ucr::format_double(result.makespan.mean, 1)});
    table.add_row({"95% CI halfwidth",
                   ucr::format_double(result.makespan.ci95_halfwidth, 1)});
    table.add_row({"min / max",
                   ucr::format_double(result.makespan.min, 0) + " / " +
                       ucr::format_double(result.makespan.max, 0)});
    table.add_row(
        {"mean ratio steps/k", ucr::format_double(result.ratio.mean, 3)});
    table.add_row({"incomplete runs", std::to_string(result.incomplete_runs)});
    table.print(std::cout);
    return incomplete == 0 ? 0 : 1;
  }

  // Grid: one row per cell, in grid order.
  std::cout << "Sweep of " << plan.total_cells << " cells";
  if (!plan.shard.is_whole()) {
    std::cout << " (this shard " << plan.shard.label() << ": "
              << results.size() << " cells)";
  }
  std::cout << ", " << spec.runs << " runs per cell, seed " << spec.seed
            << "\n\n";
  ucr::Table table({"protocol", "k", "arrivals", "channel", "engine",
                    "mean makespan", "ci95", "ratio", "incomplete"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    table.add_row({result.protocol, std::to_string(result.k),
                   cells[i].arrival.label(), cells[i].channel.label(),
                   ucr::exp::engine_mode_name(cells[i].engine),
                   ucr::format_double(result.makespan.mean, 1),
                   ucr::format_double(result.makespan.ci95_halfwidth, 1),
                   ucr::format_double(result.ratio.mean, 3),
                   std::to_string(result.incomplete_runs)});
  }
  table.print(std::cout);
  return incomplete == 0 ? 0 : 1;
}

}  // namespace

int run_cli(int argc, char** argv) {
  const ucr::CliArgs args(argc, argv,
                          {"spec", "dump-spec", "hash-spec", "protocol",
                           "protocols", "k",
                           "ks", "kmax", "runs", "seed", "engine", "arrivals",
                           "lambda", "bursts", "gap", "channel", "max-slots",
                           "shard", "threads", "csv", "format", "list",
                           "list-cells", "cache", "abort-after-cells",
                           "serve", "socket", "submit", "wait", "status",
                           "cancel", "shutdown", "json"});
  if (args.get_bool("list", false)) return list_protocols();
  if (args.get_bool("serve", false) || args.get("submit") ||
      args.get("status") || args.get("cancel") ||
      args.get_bool("shutdown", false)) {
    return run_client(args);
  }
  return run_spec(args);
}

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const ucr::ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
