#include "sim/runner.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ucr {

AggregateResult aggregate_runs(std::string name, std::uint64_t k,
                               std::vector<RunMetrics> runs) {
  AggregateResult result;
  result.protocol = std::move(name);
  result.k = k;
  result.runs = runs.size();
  std::vector<double> makespans;
  std::vector<double> ratios;
  std::vector<double> latencies;
  makespans.reserve(runs.size());
  ratios.reserve(runs.size());
  double energy_sum = 0.0;
  for (const RunMetrics& m : runs) {
    if (!m.completed) ++result.incomplete_runs;
    makespans.push_back(static_cast<double>(m.slots));
    ratios.push_back(m.ratio());
    for (const std::uint64_t latency : m.latencies) {
      latencies.push_back(static_cast<double>(latency));
    }
    // Per-station energy: exact transmission counts where the engine
    // sampled them, the expected count otherwise (a completed run always
    // has transmissions >= k > 0 when counted exactly).
    const double total_tx = m.transmissions > 0
                                ? static_cast<double>(m.transmissions)
                                : m.expected_transmissions;
    energy_sum += total_tx / static_cast<double>(m.k);
    result.energy_max =
        std::max(result.energy_max,
                 static_cast<double>(m.max_station_transmissions));
  }
  if (!runs.empty()) {
    result.energy_mean = energy_sum / static_cast<double>(runs.size());
  }
  result.makespan = summarize(makespans);
  result.ratio = summarize(ratios);
  if (!latencies.empty()) {
    // Pooled across runs (run order): the per-message latency envelope of
    // the cell, persisted per row so dynamic-arrival archives carry their
    // tail behaviour without the O(k * runs) details.
    std::sort(latencies.begin(), latencies.end());
    result.latency_p50 = quantile_sorted(latencies, 0.50);
    result.latency_p95 = quantile_sorted(latencies, 0.95);
    result.latency_p99 = quantile_sorted(latencies, 0.99);
  }
  result.details = std::move(runs);
  return result;
}

RunMetrics NodeView::run(const ArrivalPattern& arrivals, Xoshiro256& rng,
                         const EngineOptions& options) const {
  if (!views_) throw std::bad_function_call();
  if (views_->engine) return views_->engine(arrivals, rng, options);
  const std::uint64_t k = arrivals.size();
  const NodeFactory factory = [&](Xoshiro256& station_rng) {
    return views_->make(k, station_rng);
  };
  return run_node_engine(factory, arrivals, rng, options);
}

RunMetrics run_single_fair(const ProtocolFactory& factory, std::uint64_t k,
                           std::uint64_t run_index, std::uint64_t seed,
                           const EngineOptions& options) {
  UCR_REQUIRE(factory.has_fair(),
              "protocol '" + factory.name + "' has no fair-engine view");
  Xoshiro256 rng = Xoshiro256::stream(seed, run_index);
  if (factory.fair_slot) {
    auto protocol = factory.fair_slot(k);
    return run_fair_slot_engine(*protocol, k, rng, options);
  }
  auto schedule = factory.window(k);
  return run_fair_window_engine(*schedule, k, rng, options);
}

RunMetrics run_single_node(const ProtocolFactory& factory,
                           const ArrivalPattern& arrivals,
                           std::uint64_t run_index, std::uint64_t seed,
                           const EngineOptions& options) {
  UCR_REQUIRE(static_cast<bool>(factory.node),
              "protocol '" + factory.name + "' has no per-node view");
  Xoshiro256 rng = Xoshiro256::stream(seed, run_index);
  return factory.node.run(arrivals, rng, options);
}

AggregateResult run_fair_experiment(const ProtocolFactory& factory,
                                    std::uint64_t k, std::uint64_t runs,
                                    std::uint64_t seed,
                                    const EngineOptions& options) {
  UCR_REQUIRE(factory.has_fair(),
              "protocol '" + factory.name + "' has no fair-engine view");
  UCR_REQUIRE(runs > 0, "at least one run required");

  std::vector<RunMetrics> all;
  all.reserve(runs);
  for (std::uint64_t r = 0; r < runs; ++r) {
    all.push_back(run_single_fair(factory, k, r, seed, options));
  }
  return aggregate_runs(factory.name, k, std::move(all));
}

AggregateResult run_node_experiment(const ProtocolFactory& factory,
                                    const ArrivalPattern& arrivals,
                                    std::uint64_t runs, std::uint64_t seed,
                                    const EngineOptions& options) {
  UCR_REQUIRE(static_cast<bool>(factory.node),
              "protocol '" + factory.name + "' has no per-node view");
  UCR_REQUIRE(runs > 0, "at least one run required");

  std::vector<RunMetrics> all;
  all.reserve(runs);
  for (std::uint64_t r = 0; r < runs; ++r) {
    all.push_back(run_single_node(factory, arrivals, r, seed, options));
  }
  return aggregate_runs(factory.name, arrivals.size(), std::move(all));
}

std::vector<std::uint64_t> paper_k_sweep(std::uint64_t k_max) {
  UCR_REQUIRE(k_max >= 10, "the paper's sweep starts at k = 10");
  std::vector<std::uint64_t> ks;
  std::uint64_t k = 10;
  for (;;) {
    ks.push_back(k);
    if (k > k_max / 10) break;  // next power of ten would exceed k_max
    k *= 10;
  }
  if (ks.back() != k_max) {
    // k_max is not a power of ten: include it as the final point.
    ks.push_back(k_max);
  }
  return ks;
}

}  // namespace ucr
