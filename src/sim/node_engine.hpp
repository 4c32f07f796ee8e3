// Per-node simulation engine: every station is simulated individually.
//
// run_node_engine is the ground-truth engine — it makes no fairness
// assumption, so it supports dynamic arrivals (stations in genuinely
// different states) and is used by the test suite to validate the aggregate
// engine statistically. Cost is O(active stations) per slot; use the fair
// engines for batched arrivals at k >> 10^4.
//
// With EngineOptions::batched it also skips the silent stretches dynamic
// workloads are made of: whenever the active-station set is stationary —
// empty until the next arrival, or every station advertising a constant
// transmission probability through NodeProtocol::stationary_slots() — the
// slots are i.i.d. categorical, so the engine samples the geometric length
// of the non-success run plus one binomial silence/collision split in bulk
// and materializes only the state-changing (success) slot. Arrivals
// truncate every stretch, so Poisson/burst workloads stay exact.
//
// One engine body, typed per protocol: run_node_engine<P> is a function
// template over the stations' protocol type, defined in
// sim/node_engine_impl.hpp, which only instantiating translation units
// include. The generic instantiation P = NodeProtocol sits behind the
// non-template run_node_engine(const NodeFactory&, ...) below and serves
// tests, benches and user protocols through virtual calls. Each catalogued
// final node class is instantiated in its own .cpp, where its step
// definitions are visible, and is reached through run_single_node
// (NodeView::typed, sim/runner.hpp); there every per-station step is a
// direct call the compiler inlines. Both paths consume the engine stream
// identically, so they produce the same bytes
// (tests/integration/node_typed_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/arrival.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"

namespace ucr {

/// Creates a fresh protocol instance for one station. `rng` may be used by
/// stateful protocols that pre-draw randomness (it outlives the instance).
using NodeFactory =
    std::function<std::unique_ptr<NodeProtocol>(Xoshiro256& rng)>;

/// Runs the per-node engine on an arbitrary arrival pattern.
///
/// `arrivals` must be sorted non-decreasing. Every station gets a protocol
/// instance from `factory` the moment it is activated. Returns metrics with
/// `k = arrivals.size()`. An EngineOptions::observer is invoked once per
/// resolved slot; SlotView::probability reports the mean per-station
/// transmission probability of the slot (0 when no station is active),
/// the per-node generalization of the fair engines' common probability.
///
/// EngineOptions::batched turns on stretch skipping (see the file comment)
/// with the same law of outcomes — no approximation: within a stationary
/// stretch the slots are i.i.d. categorical over {silence,
/// success-by-station-i, collision}, so drawing the truncated geometric
/// non-success run length, one binomial silence/collision split, and the
/// delivering station from its conditional distribution reproduces the
/// exact joint law. Slots where any active station declines to certify
/// stationarity (NodeProtocol::stationary_slots() == 1) take the same
/// per-station draws in the same order with skipping on or off, and
/// skipping an empty-channel stretch consumes no randomness at all — so a
/// workload whose stations all keep the default hint of 1 is bit-identical
/// in both modes from the same seed. Stretches certified by hints > 1
/// generally consume randomness differently and are pinned statistically
/// (tests/integration/node_batched_test.cpp) — except when every
/// probability in the stretch is an exact 0 or 1, as with the pre-drawn
/// window adapter (protocols/window_node.hpp): Bernoulli, geometric and
/// binomial draws are all draw-free at degenerate p, so window-protocol
/// cells are bit-identical between the two modes even while skipping
/// (pinned byte-for-byte by the dynamic-arrivals golden test).
///
/// Accounting: RunMetrics::transmissions counts materialized slots only;
/// expected_transmissions carries realized counts for materialized slots
/// plus, when batched, the unconditional expectation sum_i p_i per slot of
/// every bulk stretch, its success slot included — unbiased by Wald's
/// identity, so its mean matches the realized mean, and for a run with no
/// skipped stretches the two are equal. Batched runs throw
/// ContractViolation with an observer attached (skipped slots are never
/// materialized) or on a non-clean EngineOptions::channel.
RunMetrics run_node_engine(const NodeFactory& factory,
                           const ArrivalPattern& arrivals, Xoshiro256& rng,
                           const EngineOptions& options);

/// The same engine over stations of protocol type P (a final NodeProtocol
/// subclass): `factory` hands out std::unique_ptr<P>, so every per-station
/// step is a direct call. Defined in sim/node_engine_impl.hpp; include it
/// in the one translation unit that instantiates P.
template <typename P>
RunMetrics run_node_engine(
    const std::function<std::unique_ptr<P>(Xoshiro256& rng)>& factory,
    const ArrivalPattern& arrivals, Xoshiro256& rng,
    const EngineOptions& options);

}  // namespace ucr
