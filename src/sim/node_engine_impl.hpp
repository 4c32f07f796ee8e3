// The body of the per-node engine, run_node_engine<P> (declared and
// documented in sim/node_engine.hpp).
//
// Include this header only in a translation unit that instantiates the
// engine: sim/node_engine.cpp for the generic P = NodeProtocol, and each
// catalogued protocol's own .cpp for its final node class (through
// NodeView::typed, sim/runner.hpp), where the protocol's step definitions
// are visible and inline into the per-station loops. There is one engine
// body; the instantiations differ only in how a station's steps are
// called.
//
// Station state lives in a StationSoA<P> (sim/station_soa.hpp): parallel
// arrays instead of a vector of per-station structs, so each per-slot pass
// is a tight loop over one contiguous array. The passes visit stations in
// index order — the same order as the historical struct-of-vectors loops,
// and the protocol automata consume no randomness in
// transmit_probability() — so the RNG stream is consumed identically
// whether the exact slot gathers every probability before drawing any
// coin or, as here, draws each station's coin right after its
// probability. Every instantiation is therefore bit-identical to the
// pre-SoA layout and to every other instantiation (pinned by
// tests/integration/golden_test.cpp, the spec-catalogue outputs and
// tests/integration/node_typed_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "common/samplers.hpp"
#include "sim/node_engine.hpp"
#include "sim/observer.hpp"
#include "sim/station_soa.hpp"

namespace ucr {

namespace detail {

/// The station that delivers in a stationary stretch's success slot: the
/// slot has exactly one transmitter, station i with probability
/// proportional to w_i = p_i * prod_{j != i} (1 - p_j). Defined in
/// sim/node_engine.cpp (the batched path only, so it need not inline).
std::size_t attribute_success(const std::vector<double>& probs,
                              std::vector<double>& weights, Xoshiro256& rng);

}  // namespace detail

template <typename P>
RunMetrics run_node_engine(
    const std::function<std::unique_ptr<P>(Xoshiro256& rng)>& factory,
    const ArrivalPattern& arrivals, Xoshiro256& rng,
    const EngineOptions& options, LatencyMetrics* latency) {
  UCR_REQUIRE(std::is_sorted(arrivals.begin(), arrivals.end()),
              "arrival pattern must be sorted");
  const std::uint64_t k = arrivals.size();
  UCR_REQUIRE(k > 0, "workload must contain at least one message");
  options.channel.validate();
  if (options.batched) {
    UCR_REQUIRE(options.observer == nullptr,
                "batched runs never materialize skipped slots; per-slot "
                "observers require EngineOptions::batched = false");
    UCR_REQUIRE(options.channel.is_clean(),
                "the node engine's stationary-stretch certificates assume "
                "the clean channel; imperfect channel models "
                "(channel/model.hpp) require EngineOptions::batched = false "
                "— the exp pipeline routes non-clean grids there "
                "automatically");
  }

  RunMetrics metrics;
  metrics.k = k;
  const std::uint64_t cap = options.resolved_cap(k);
  KahanSum expected_tx;

  StationSoA<P> active;
  active.reserve(std::min<std::uint64_t>(k, 1u << 20));
  std::size_t next_arrival = 0;
  std::vector<double> weights;  // success-attribution weights, reused

  std::uint64_t now = 0;
  std::uint64_t last_delivery_slot = 0;

  // Success bookkeeping of both exact slots and stretch-closing successes:
  // fold the delivered station's energy, then swap-remove it (station
  // order is irrelevant to the model).
  const auto deliver = [&](std::size_t index) {
    ++metrics.success_slots;
    ++metrics.deliveries;
    last_delivery_slot = now;
    if (options.record_deliveries) {
      metrics.delivery_slots.push_back(now);
    }
    if (latency != nullptr || options.record_latencies) {
      const std::uint64_t message_latency =
          now - active.arrival_slot(index) + 1;
      if (latency != nullptr) latency->latencies.push_back(message_latency);
      if (options.record_latencies) {
        metrics.latencies.push_back(message_latency);
      }
    }
    metrics.max_station_transmissions =
        std::max(metrics.max_station_transmissions, active.sent(index));
    active.swap_remove(index);
  };

  while (metrics.deliveries < k && now < cap) {
    // Activate stations whose message arrives at this slot.
    while (next_arrival < arrivals.size() && arrivals[next_arrival] <= now) {
      active.activate(factory, rng, arrivals[next_arrival]);
      ++next_arrival;
    }

    // The exact slot's probability sum and transmitter count.
    double probability_sum = 0.0;
    std::uint64_t transmitters = 0;
    if (!options.batched) {
      // Every slot is materialized, empty ones included: a jamming
      // channel draws its coin even in slots nobody transmits in. One
      // fused pass: each station's probability, then its coin.
      const auto draw = active.draw_slot(rng);
      probability_sum = draw.p_sum;
      transmitters = draw.transmitters;
    } else if (active.empty()) {
      // No station can transmit before the next arrival: the whole gap is
      // silence. On the clean channel an empty slot consumes no
      // randomness, so the skip is draw-for-draw invisible.
      const std::uint64_t until =
          next_arrival < arrivals.size()
              ? std::min(arrivals[next_arrival], cap)
              : cap;
      metrics.silence_slots += until - now;
      now = until;
      continue;
    } else {
      // Batched: the probabilities plus the joint stationarity horizon
      // and the slot's category law.
      const auto law = active.gather_slot_law();
      UCR_CHECK(law.horizon >= 1, "stationary horizon must be >= 1");
      std::uint64_t stretch = std::min(law.horizon, cap - now);
      if (next_arrival < arrivals.size()) {
        // A new station voids every stationarity certificate: truncate the
        // stretch at the next arrival (> now after the activation loop).
        stretch = std::min(stretch, arrivals[next_arrival] - now);
      }
      probability_sum = law.p_sum;

      if (stretch > 1) {
        // Stationary stretch: slots are i.i.d. categorical until the first
        // success, so the non-success run length is Geometric(s) truncated
        // at the stretch, the skipped slots split into silence vs
        // collision with one binomial draw, and every station advances in
        // bulk. Only the state-changing slot — the success, if the run
        // ended in one — is materialized. Deterministic silence (p_sum ==
        // 0, the pre-drawn window adapter's certified run-ups and tails)
        // flows through the same code draw-free: the truncated geometric
        // at s == 0 returns the full stretch and the binomial at
        // conditional == 1 returns it back without touching the stream.
        const std::uint64_t failures =
            sample_geometric_failures(rng, law.s, stretch);
        const bool delivered = failures < stretch;
        std::uint64_t silent = failures;
        if (failures > 0 && law.s < 1.0) {
          const double conditional = std::min(1.0, law.q / (1.0 - law.s));
          silent = sample_binomial(rng, failures, conditional);
        }
        metrics.silence_slots += silent;
        metrics.collision_slots += failures - silent;
        // Unconditional per-slot expectation over the whole stretch,
        // success slot included — the stopping time (first success) is
        // adapted, so by Wald's identity p_sum * E[stretch length] equals
        // the expected realized transmission count; adding the realized 1
        // of the success slot instead would bias the estimator by
        // 1 - p_sum per delivery (the fair slot engine uses the same
        // convention).
        expected_tx.add(law.p_sum *
                        static_cast<double>(failures + (delivered ? 1 : 0)));
        now += failures;
        for (std::size_t i = 0; i < active.size(); ++i) {
          active.protocol(i).on_non_delivery_slots(failures);
        }
        if (!delivered) continue;

        const std::size_t chosen =
            detail::attribute_success(active.probs(), weights, rng);
        ++metrics.transmissions;
        active.add_sent(chosen);
        for (std::size_t i = 0; i < active.size(); ++i) {
          const Feedback fb = make_feedback(SlotOutcome::kSuccess, i == chosen,
                                            options.collision_detection);
          active.protocol(i).on_slot_end(fb);
        }
        deliver(chosen);
        ++now;
        continue;
      }
      // A one-slot stretch: one Bernoulli coin per gathered probability,
      // in index order.
      transmitters = active.draw_transmissions(rng);
    }

    // The exact slot. The channel model classifies it: the clean channel
    // inline, drawing no coins; jam and capture coins come from the
    // engine's stream, after the per-station Bernoulli draws of this slot.
    const SlotOutcome outcome =
        options.channel.is_clean()
            ? resolve_outcome(transmitters)
            : options.channel.resolve(now, transmitters, rng);
    metrics.transmissions += transmitters;
    // Batched runs interleave realized counts with stretch expectations;
    // exact runs read the realized total at the end instead of paying for
    // a compensated add per slot.
    if (options.batched) expected_tx.add(static_cast<double>(transmitters));

    if (options.observer != nullptr) {
      // SlotView::probability is the mean per-station probability (0 with
      // no active stations) — the heterogeneous-state generalization of
      // the fair engines' common per-station probability.
      const double mean_probability =
          active.empty()
              ? 0.0
              : probability_sum / static_cast<double>(active.size());
      options.observer->on_slot(
          SlotView{now, active.size(), mean_probability, outcome});
    }

    // Who delivered? On the clean channel a success slot has exactly one
    // transmitter. Under capture the slot can have several: the winner is
    // uniform among them (i.i.d. fading ranks), drawn only then — the
    // clean path consumes no extra randomness.
    std::size_t delivered_index = active.size();
    if (outcome == SlotOutcome::kSuccess) {
      UCR_CHECK(transmitters >= 1, "success slot without any transmitter");
      delivered_index = active.nth_transmitter(
          transmitters == 1 ? 0 : rng.next_below(transmitters));
    }

    // Feedback. make_feedback covers the clean-channel observations; a
    // captured slot adds the one case it cannot express — a transmitter
    // that was NOT delivered during a success slot. Half-duplex radios
    // cannot receive while transmitting, so such a station hears nothing
    // (every flag false except its own `transmitted`), exactly like a
    // collision without CD.
    for (std::size_t i = 0; i < active.size(); ++i) {
      Feedback fb;
      if (outcome == SlotOutcome::kSuccess && active.transmitted(i) &&
          i != delivered_index) {
        fb.transmitted = true;
      } else {
        fb = make_feedback(outcome, active.transmitted(i),
                           options.collision_detection);
      }
      active.protocol(i).on_slot_end(fb);
    }
    if (outcome == SlotOutcome::kSuccess) {
      deliver(delivered_index);
    } else if (outcome == SlotOutcome::kSilence) {
      ++metrics.silence_slots;
    } else {
      ++metrics.collision_slots;
    }
    ++now;
  }
  // Incomplete runs (and stations that never drained): their energy
  // spend counts too.
  metrics.max_station_transmissions =
      std::max(metrics.max_station_transmissions, active.max_sent());

  metrics.completed = metrics.deliveries == k;
  // Makespan is measured to the last delivery for completed runs (trailing
  // empty slots cannot occur: the loop exits right after the k-th delivery).
  metrics.slots = metrics.completed ? last_delivery_slot + 1 : cap;
  metrics.expected_transmissions =
      options.batched ? expected_tx.value()
                      : static_cast<double>(metrics.transmissions);
  metrics.validate();
  return metrics;
}

}  // namespace ucr
