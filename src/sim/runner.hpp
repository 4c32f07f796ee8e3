// Experiment runner: repeats runs with independent seeds and aggregates.
//
// A ProtocolFactory bundles the three engine views of one named protocol
// configuration. Factories receive k because two of the paper's algorithms
// are parameterized by knowledge of (a bound on) k: Log-Fails Adaptive
// needs epsilon ~= 1/(k+1) and the known-k genie needs k itself. The
// knowledge-free protocols simply ignore the argument.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "sim/fair_engine.hpp"
#include "sim/node_engine.hpp"

namespace ucr {

/// The per-node view of one protocol configuration: makes one station's
/// automaton for a workload of k messages (`rng` is the engine stream, as
/// for NodeFactory) and runs the per-node engine over such stations.
///
/// Converts implicitly from any callable (k, rng) -> std::unique_ptr to a
/// NodeProtocol (subclass), and from nullptr (no view); run() then takes
/// the generic run_node_engine with virtual calls. NodeView::typed<P>
/// additionally carries the run_node_engine<P> instantiation for a final
/// class P, so every station step is a direct call. Both produce the same
/// bytes from the same seed.
class NodeView {
 public:
  using Make = std::function<std::unique_ptr<NodeProtocol>(std::uint64_t k,
                                                           Xoshiro256& rng)>;

  NodeView() = default;
  /// Implicit, so `factory.node = lambda` and `= nullptr` keep compiling.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, NodeView> &&
                std::is_constructible_v<Make, F>>>
  NodeView(F make) {
    Make generic(std::move(make));
    if (generic) {
      views_ = std::make_shared<const Views>(Views{std::move(generic), {}});
    }
  }

  /// A view whose stations are all of type P, made by `make`
  /// ((k, rng) -> std::unique_ptr<P>). Call it only where
  /// sim/node_engine_impl.hpp is included and P's step definitions are
  /// visible — the protocol's own .cpp — so the engine instantiation
  /// inlines them.
  template <typename P, typename F>
  static NodeView typed(F make);

  /// Throws std::bad_function_call on an empty view.
  std::unique_ptr<NodeProtocol> operator()(std::uint64_t k,
                                           Xoshiro256& rng) const {
    if (!views_) throw std::bad_function_call();
    return views_->make(k, rng);
  }
  explicit operator bool() const { return views_ != nullptr; }
  /// True iff built by typed<P>: run() takes the typed instantiation.
  bool has_typed_engine() const {
    return views_ != nullptr && static_cast<bool>(views_->engine);
  }

  /// Runs the per-node engine with one station per message of `arrivals`:
  /// the typed instantiation if this view carries one, else the generic
  /// engine. Throws std::bad_function_call on an empty view.
  RunMetrics run(const ArrivalPattern& arrivals, Xoshiro256& rng,
                 const EngineOptions& options) const;

 private:
  using Engine = std::function<RunMetrics(
      const ArrivalPattern& arrivals, Xoshiro256& rng,
      const EngineOptions& options)>;

  struct Views {
    Make make;
    Engine engine;  // empty: the generic engine over make
  };

  // Immutable and shared by every copy: plans copy a protocol's factory
  // into each of their cells.
  std::shared_ptr<const Views> views_;
};

template <typename P, typename F>
NodeView NodeView::typed(F make) {
  static_assert(std::is_base_of_v<NodeProtocol, P> && std::is_final_v<P>,
                "typed node views need a final NodeProtocol subclass");
  Make generic = [make](std::uint64_t k, Xoshiro256& rng)
      -> std::unique_ptr<NodeProtocol> { return make(k, rng); };
  Engine engine = [make](const ArrivalPattern& arrivals, Xoshiro256& rng,
                         const EngineOptions& options) {
    const std::uint64_t k = arrivals.size();
    const std::function<std::unique_ptr<P>(Xoshiro256&)> factory =
        [&make, k](Xoshiro256& station_rng) { return make(k, station_rng); };
    return run_node_engine<P>(factory, arrivals, rng, options);
  };
  NodeView view;
  view.views_ = std::make_shared<const Views>(
      Views{std::move(generic), std::move(engine)});
  return view;
}

/// The three engine views of one protocol configuration. Exactly one of
/// `fair_slot` / `window` must be set (for the aggregate engine); `node`
/// should be set whenever the per-node engine or dynamic workloads are used.
struct ProtocolFactory {
  std::string name;
  std::function<std::unique_ptr<FairSlotProtocol>(std::uint64_t k)> fair_slot;
  std::function<std::unique_ptr<WindowSchedule>(std::uint64_t k)> window;
  NodeView node;

  bool has_fair() const {
    return static_cast<bool>(fair_slot) || static_cast<bool>(window);
  }
};

/// Aggregated outcome of `runs` independent executions at one k.
struct AggregateResult {
  std::string protocol;
  std::uint64_t k = 0;
  std::uint64_t runs = 0;
  std::uint64_t incomplete_runs = 0;  ///< runs stopped by the slot cap
  Summary makespan;                   ///< slots (capped value for incomplete)
  Summary ratio;                      ///< slots / k
  /// Percentiles of the per-message latencies pooled across all runs,
  /// read exactly off the merged per-run histograms
  /// (RunMetrics::latency_histogram; the same doubles quantile_sorted
  /// gives on the pooled, sorted sample, so deterministic for any thread
  /// count). Only the per-node engines record latencies, and only under
  /// EngineOptions::record_latencies; all three stay 0 otherwise.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  /// Energy accounting (docs/SCENARIOS.md): mean transmissions per
  /// station per run, averaged over runs — exact counts where the engine
  /// samples them (node engines, window engine), the expected count
  /// otherwise (the O(1)-categorical fair engine). The GreenPod-style
  /// per-station budget view of the same sweeps.
  double energy_mean = 0.0;
  /// Max over runs of the run's largest per-station transmission count
  /// (RunMetrics::max_station_transmissions). Exact on the exact node
  /// engine; a materialized-slots lower bound on the batched node engine;
  /// 0 on the fair engines, which do not track stations.
  double energy_max = 0.0;
  std::vector<RunMetrics> details;    ///< one entry per run
};

/// One execution of a fair protocol at batch size k through the aggregate
/// engine, seeded as stream(seed, run_index). This is the unit of work the
/// serial experiment loops and the parallel SweepRunner (sim/sweep.hpp)
/// share: a (seed, run_index) pair fully determines the result, so
/// scheduling order and thread count cannot change any output.
RunMetrics run_single_fair(const ProtocolFactory& factory, std::uint64_t k,
                           std::uint64_t run_index, std::uint64_t seed,
                           const EngineOptions& options);

/// One execution through the per-node engine, seeded as
/// stream(seed, run_index), with stations from factory.node — its typed
/// engine instantiation when it carries one (NodeView::typed), the
/// generic engine otherwise; both give the same bytes.
/// EngineOptions::batched selects the batched node engine (bulk-skipped
/// stationary stretches; same law, different RNG path wherever a stretch
/// is skipped).
RunMetrics run_single_node(const ProtocolFactory& factory,
                           const ArrivalPattern& arrivals,
                           std::uint64_t run_index, std::uint64_t seed,
                           const EngineOptions& options);

/// Folds per-run metrics (in run order) into the aggregate summary.
AggregateResult aggregate_runs(std::string name, std::uint64_t k,
                               std::vector<RunMetrics> runs);

/// Runs `runs` executions of a fair protocol at batch size k through the
/// aggregate engine, with run r seeded as stream(seed, r).
AggregateResult run_fair_experiment(const ProtocolFactory& factory,
                                    std::uint64_t k, std::uint64_t runs,
                                    std::uint64_t seed,
                                    const EngineOptions& options);

/// Same, but through the per-node engine (any protocol with a `node`
/// factory; arbitrary arrival pattern).
AggregateResult run_node_experiment(const ProtocolFactory& factory,
                                    const ArrivalPattern& arrivals,
                                    std::uint64_t runs, std::uint64_t seed,
                                    const EngineOptions& options);

/// Standard k sweep of the paper's evaluation: powers of ten from 10 to
/// `k_max` inclusive (k_max itself included even if not a power of ten).
std::vector<std::uint64_t> paper_k_sweep(std::uint64_t k_max);

}  // namespace ucr
