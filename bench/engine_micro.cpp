// Microbenchmarks (google-benchmark) of the simulation substrate: sampler
// throughput and slots/second of both engines. These justify the engine
// split documented in DESIGN.md §4 — the aggregate engine is what makes
// the paper's k = 10^7 sweep feasible on a laptop. BM_SpecSweep times the
// whole spec -> plan -> run pipeline on a *versioned* workload
// (specs/engine-micro.spec, overridable with UCR_SPEC), so the CI
// regression baseline is itself a spec file next to the code.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/samplers.hpp"
#include "coord/coordinator.hpp"
#include "coord/workers.hpp"
#include "core/exp_backon_backoff.hpp"
#include "core/one_fail_adaptive.hpp"
#include "core/registry.hpp"
#include "exp/plan.hpp"
#include "exp/run.hpp"
#include "exp/spec_io.hpp"
#include "protocols/exp_backoff.hpp"
#include "protocols/known_k.hpp"
#include "protocols/log_fails_adaptive.hpp"
#include "protocols/window_node.hpp"
#include "sim/fair_engine.hpp"
#include "sim/node_engine.hpp"
#include "sim/observer.hpp"
#include "sim/runner.hpp"
#include "svc/result_cache.hpp"

#ifndef UCR_ENGINE_MICRO_SPEC
#define UCR_ENGINE_MICRO_SPEC "specs/engine-micro.spec"
#endif

#ifndef UCR_CLI_DEFAULT
#define UCR_CLI_DEFAULT ""
#endif

namespace {

void BM_Xoshiro_NextDouble(benchmark::State& state) {
  ucr::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_double());
  }
}
BENCHMARK(BM_Xoshiro_NextDouble);

void BM_CounterRng_NextDouble(benchmark::State& state) {
  ucr::CounterRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_double());
  }
}
BENCHMARK(BM_CounterRng_NextDouble);

// Bulk draw throughput: the counter-based generator has no loop-carried
// state dependency, so fill_u64 is where it should pull ahead of the
// sequential xoshiro recurrence.
template <typename Rng>
void BM_FillU64(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill_u64(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FillU64<ucr::Xoshiro256>)->Arg(4096);
BENCHMARK(BM_FillU64<ucr::CounterRng>)->Arg(4096);

void BM_SlotCategory(benchmark::State& state) {
  ucr::Xoshiro256 rng(2);
  const std::uint64_t m = state.range(0);
  const double p = 1.0 / static_cast<double>(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ucr::sample_slot_category(rng, m, p));
  }
}
BENCHMARK(BM_SlotCategory)->Arg(100)->Arg(1000000);

void BM_BinomialInversion(benchmark::State& state) {
  ucr::Xoshiro256 rng(3);
  const std::uint64_t n = state.range(0);
  const double p = 1.0 / static_cast<double>(n);  // mean 1
  for (auto _ : state) {
    benchmark::DoNotOptimize(ucr::sample_binomial(rng, n, p));
  }
}
BENCHMARK(BM_BinomialInversion)->Arg(1000)->Arg(1000000);

void BM_BinomialBtrs(benchmark::State& state) {
  ucr::Xoshiro256 rng(4);
  const std::uint64_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ucr::sample_binomial(rng, n, 0.3));
  }
}
BENCHMARK(BM_BinomialBtrs)->Arg(1000)->Arg(1000000);

// Whole-run benchmarks: items processed = slots simulated.
void BM_FairSlotEngine_OneFail(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::OneFailAdaptive protocol;
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(5, seed++);
    const auto run = ucr::run_fair_slot_engine(protocol, k, rng, {});
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairSlotEngine_OneFail)->Arg(1000)->Arg(100000);

// Log-Fails Adaptive (2) alternates AT and BT steps, so its probability
// never holds for two slots in a row and every slot takes the exact step;
// its (m, p) pairs repeat, which is what the engine's slot-law cache buys.
void BM_FairSlotEngine_LogFails2(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  ucr::LogFailsParams params;
  params.xi_t = 0.5;
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::LogFailsAdaptive protocol(params, k);
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(5, seed++);
    const auto run = ucr::run_fair_slot_engine(protocol, k, rng, {});
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairSlotEngine_LogFails2)->Arg(1000)->Arg(100000);

void BM_FairWindowEngine_Sawtooth(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::ExpBackonBackoff schedule;
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(6, seed++);
    const auto run = ucr::run_fair_window_engine(schedule, k, rng, {});
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairWindowEngine_Sawtooth)->Arg(1000)->Arg(100000);

// Exact vs batched on the same workload: the batched engine's win is the
// sparse-window regime of monotone back-off, where almost every slot is
// silent and the exact engine still pays one binomial draw for it.
void BM_FairWindowEngine_ExpBackoff(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::ExponentialBackoff schedule;
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(8, seed++);
    const auto run = ucr::run_fair_window_engine(schedule, k, rng, {});
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairWindowEngine_ExpBackoff)->Arg(10000)->Arg(100000);

void BM_FairWindowEngineBatched_ExpBackoff(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  ucr::EngineOptions options;
  options.batched = true;
  for (auto _ : state) {
    ucr::ExponentialBackoff schedule;
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(8, seed++);
    const auto run = ucr::run_fair_window_engine(schedule, k, rng, options);
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairWindowEngineBatched_ExpBackoff)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

void BM_FairSlotEngineBatched_Genie(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  ucr::EngineOptions options;
  options.batched = true;
  for (auto _ : state) {
    ucr::KnownKGenie genie(k);
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(9, seed++);
    const auto run = ucr::run_fair_slot_engine(genie, k, rng, options);
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FairSlotEngineBatched_Genie)->Arg(100000)->Arg(1000000);

// The dense dynamic-cell trajectory (tools/bench_report.py tracks this):
// sustained Poisson arrivals at lambda = 0.01 on a window protocol, where
// the batched node engine's skip runs on the pre-drawn in-window slot
// certificates (protocols/window_node.hpp) — before the pre-draw, a
// not-yet-transmitted station capped every stretch at one slot and this
// workload degenerated to per-slot cost. Items processed = slots covered,
// so the tracked quantity is effective slots/second including everything
// the engine skips.
void BM_NodeBatched_DensePoisson(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  ucr::Xoshiro256 arrival_rng = ucr::Xoshiro256::stream(12, 0);
  const auto arrivals = ucr::poisson_arrivals(k, 0.01, arrival_rng);
  const ucr::NodeFactory factory = [](ucr::Xoshiro256& rng) {
    return std::make_unique<ucr::WindowNodeProtocol>(
        std::make_unique<ucr::ExpBackonBackoff>(), rng);
  };
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  ucr::EngineOptions options;
  options.batched = true;
  for (auto _ : state) {
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(13, seed++);
    const auto run = ucr::run_node_engine(factory, arrivals, rng, options);
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_NodeBatched_DensePoisson)->Arg(10000)->Arg(100000);

void BM_NodeEngine_OneFail(benchmark::State& state) {
  const std::uint64_t k = state.range(0);
  std::uint64_t seed = 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    ucr::Xoshiro256 rng = ucr::Xoshiro256::stream(7, seed++);
    const ucr::NodeFactory factory = [](ucr::Xoshiro256&) {
      return std::make_unique<ucr::OneFailAdaptiveNode>();
    };
    const auto run = ucr::run_node_engine(
        factory, ucr::batched_arrivals(k), rng, {});
    slots += run.slots;
    benchmark::DoNotOptimize(run.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_NodeEngine_OneFail)->Arg(100)->Arg(1000);

// Counts station-slots: the active-station count summed over every slot.
class StationSlotCounter final : public ucr::SlotObserver {
 public:
  void on_slot(const ucr::SlotView& view) override {
    station_slots += view.active;
  }
  std::uint64_t station_slots = 0;
};

// The livelock shape of the dynamic-node sweep: k = 200 under poisson(0.5)
// arrivals on the exact node engine, through the catalogue's typed view
// (run_single_node), where One-Fail Adaptive and Log-Fails Adaptive (2)
// keep nearly every station active up to the slot cap. Items processed =
// station-slots, so the reported rate inverts to ns per station-slot.
void BM_NodeEngine_Livelock(benchmark::State& state, const char* protocol) {
  const auto catalogue = ucr::default_catalogue();
  const ucr::ProtocolFactory& factory =
      ucr::find_protocol(catalogue, protocol);
  ucr::Xoshiro256 arrival_rng = ucr::Xoshiro256::stream(14, 0);
  const auto arrivals = ucr::poisson_arrivals(200, 0.5, arrival_rng);
  StationSlotCounter counter;
  ucr::EngineOptions options;
  options.max_slots = 20000;
  options.observer = &counter;
  std::uint64_t run = 0;
  for (auto _ : state) {
    const auto m = ucr::run_single_node(factory, arrivals, run++, 15, options);
    benchmark::DoNotOptimize(m.slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(counter.station_slots));
}
BENCHMARK_CAPTURE(BM_NodeEngine_Livelock, OneFail, "One-Fail Adaptive");
BENCHMARK_CAPTURE(BM_NodeEngine_Livelock, LogFails2,
                  "Log-Fails Adaptive (2)");

// Whole-pipeline sweep from a versioned spec file. One iteration = the
// complete sweep the file describes (compile is outside the loop: the
// regression target is execution, not parsing).
void BM_SpecSweep(benchmark::State& state) {
  const char* env = std::getenv("UCR_SPEC");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : UCR_ENGINE_MICRO_SPEC;
  ucr::exp::SpecFile file;
  try {
    file = ucr::exp::load_spec_file(path);
  } catch (const ucr::ContractViolation& e) {
    state.SkipWithError(e.what());
    return;
  }
  const ucr::exp::ExperimentPlan plan =
      ucr::exp::compile(file.spec, ucr::default_catalogue());

  std::uint64_t slots = 0;
  for (auto _ : state) {
    const auto results = ucr::exp::run_collect(plan, {file.threads});
    for (const auto& result : results) {
      for (const auto& detail : result.details) slots += detail.slots;
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
  state.SetLabel(path);
}
// The sweep executes on pool workers, so the main thread's own CPU time
// is idle waiting: measure process-wide CPU (what bench_compare.py
// tracks) and pace iterations by wall clock. The shipped spec pins
// threads = 1 so process CPU is the work itself, not scheduler noise.
BENCHMARK(BM_SpecSweep)->MeasureProcessCPUTime()->UseRealTime();

// The warm half of docs/SERVICE.md's cost model: the identical sweep
// with every cell already banked in the result cache, so one iteration
// is pure replay (key lookup + record parse + re-render), no
// simulation. The cache is primed once outside the timing loop; items
// processed = cells replayed, so the per-cell replay cost is the
// tracked regression quantity.
void BM_CachedSweep(benchmark::State& state) {
  namespace fs = std::filesystem;
  const char* env = std::getenv("UCR_SPEC");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : UCR_ENGINE_MICRO_SPEC;
  ucr::exp::SpecFile file;
  try {
    file = ucr::exp::load_spec_file(path);
  } catch (const ucr::ContractViolation& e) {
    state.SkipWithError(e.what());
    return;
  }
  const ucr::exp::ExperimentPlan plan =
      ucr::exp::compile(file.spec, ucr::default_catalogue());

  const fs::path root =
      fs::temp_directory_path() / "ucr_bm_cached_sweep";
  fs::remove_all(root);
  ucr::svc::ResultCache cache(root.string());
  ucr::exp::run_collect(plan, {file.threads, &cache});  // prime

  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto results =
        ucr::exp::run_collect(plan, {file.threads, &cache});
    cells += results.size();
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.SetLabel(path);
  fs::remove_all(root);
}
BENCHMARK(BM_CachedSweep)->MeasureProcessCPUTime()->UseRealTime();

// Coordinator dispatch overhead (docs/ORCHESTRATOR.md): the same
// versioned workload fanned out over two local workers with warm
// per-worker result caches, so every cell replays from cache and what
// remains is the orchestration itself — overlay writing, one fork/exec
// of the real ucr_cli per shard, progress polling, shard-output
// validation and concatenation. Items processed = shards dispatched,
// so the tracked regression quantity is per-shard dispatch overhead;
// cpu_time is the coordinator thread's own work, excluding both the
// workers' simulation and the poll sleeps.
void BM_CoordLocalSweep(benchmark::State& state) {
  namespace fs = std::filesystem;
  const char* cli_env = std::getenv("UCR_CLI");
  const std::string cli =
      (cli_env != nullptr && *cli_env != '\0') ? cli_env : UCR_CLI_DEFAULT;
  if (cli.empty() || !fs::exists(cli)) {
    state.SkipWithError("ucr_cli binary not found (set UCR_CLI)");
    return;
  }
  const char* env = std::getenv("UCR_SPEC");
  const std::string spec =
      (env != nullptr && *env != '\0') ? env : UCR_ENGINE_MICRO_SPEC;

  const fs::path root = fs::temp_directory_path() / "ucr_bm_coord_sweep";
  fs::remove_all(root);

  ucr::coord::CoordinatorOptions options;
  options.spec_path = spec;
  options.workers = ucr::coord::parse_workers("local\nlocal\n");
  options.cli = cli;
  options.work_dir = (root / "work").string();

  std::uint64_t shards = 0;
  try {
    // Prime the per-worker caches: the one cold run simulates, every
    // timed iteration afterwards is pure replay + dispatch.
    std::ostringstream primed;
    ucr::coord::Coordinator(options).run(primed);
    for (auto _ : state) {
      ucr::coord::Coordinator coordinator(options);
      std::ostringstream out;
      const ucr::coord::CoordReport report = coordinator.run(out);
      shards += report.shards;
      benchmark::DoNotOptimize(report.rows);
    }
  } catch (const ucr::ContractViolation& e) {
    state.SkipWithError(e.what());
    fs::remove_all(root);
    return;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(shards));
  state.SetLabel(spec);
  fs::remove_all(root);
}
// Paced by wall clock: the per-iteration latency is dominated by child
// lifetimes and the poll loop, which thread CPU time cannot see.
BENCHMARK(BM_CoordLocalSweep)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
