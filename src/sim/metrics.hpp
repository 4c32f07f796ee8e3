// Per-run measurement record produced by the simulation engines.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/model.hpp"

namespace ucr {

class SlotObserver;  // sim/observer.hpp

/// Everything measured in one simulated execution.
struct RunMetrics {
  /// True iff all k messages were delivered before the slot cap.
  bool completed = false;
  /// Number of messages in the batch (the paper's k).
  std::uint64_t k = 0;
  /// Makespan: slots elapsed up to and including the last delivery (or the
  /// cap, if not completed). This is the paper's "steps" measure.
  std::uint64_t slots = 0;
  std::uint64_t deliveries = 0;

  std::uint64_t silence_slots = 0;
  std::uint64_t success_slots = 0;
  std::uint64_t collision_slots = 0;

  /// Exact transmission count when the engine knows it (node engine and the
  /// window engine); 0 otherwise.
  std::uint64_t transmissions = 0;
  /// Expected transmission count (sum of m*p over slots); filled by the
  /// O(1)-categorical fair engine where exact counts are not sampled.
  double expected_transmissions = 0.0;

  /// Largest per-station transmission count of the run — the energy_max
  /// statistic (docs/SCENARIOS.md). Exact for the per-station engines
  /// (node): every station's attempts are counted, delivered and
  /// still-active stations alike. The batched node engine counts only
  /// materialized slots (a lower bound wherever a stretch is skipped);
  /// the fair aggregate engines do not track stations and leave 0.
  std::uint64_t max_station_transmissions = 0;

  /// Slot index of each delivery, in order (only when
  /// EngineOptions::record_deliveries is set).
  std::vector<std::uint64_t> delivery_slots;

  /// Per-message latency (delivery slot - arrival slot + 1) in delivery
  /// order; filled by the per-node engine when
  /// EngineOptions::record_latencies is set. The fair engines leave it
  /// empty: under batched arrivals latency is the delivery slot + 1, so
  /// `delivery_slots` already carries it.
  std::vector<std::uint64_t> latencies;

  /// Makespan normalized by k — the paper's Table 1 quantity.
  double ratio() const;

  /// Internal consistency: outcome counts sum to slots, deliveries match
  /// success slots, deliveries == k iff completed. Throws on violation.
  void validate() const;
};

/// Engine knobs shared by all engines.
struct EngineOptions {
  /// Hard slot cap; a run that does not finish is returned with
  /// completed == false (never an infinite loop). 0 means "default cap"
  /// of 10^6 + 100000 * k slots, far above any protocol bound in the repo.
  std::uint64_t max_slots = 0;
  /// Record the slot index of every delivery (costs O(k) memory).
  bool record_deliveries = false;
  /// Record per-message latencies (per-node engine only; O(k) memory).
  bool record_latencies = false;
  /// Run each engine in its batched mode — every engine function
  /// (run_fair_slot_engine, run_fair_window_engine, run_node_engine)
  /// reads this flag; there is no separate batched entry point. For the
  /// fair engines (sim/fair_engine.hpp): O(successes + probability
  /// changes) instead of O(slots) for slot-probability protocols and
  /// O(active stations) instead of O(window slots) per window for window
  /// protocols; for the per-node engine (sim/node_engine.hpp):
  /// bulk-sampled stationary stretches — empty-channel gaps and
  /// constant-probability runs certified by NodeProtocol::
  /// stationary_slots() — instead of per-slot resolution. Same law of
  /// outcomes as with the flag off but a different RNG consumption pattern
  /// wherever a stretch is actually skipped, so individual runs differ;
  /// validated statistically (tests/integration). Incompatible with
  /// `observer` (the skipped slots are never materialized) and with a
  /// non-clean `channel`; the engines throw ContractViolation on either.
  bool batched = false;
  /// Channel-model extension: stations can distinguish collision from
  /// silence (Feedback::heard_collision). The paper's model — and every
  /// protocol it evaluates — uses false; the CD baselines (stack/tree
  /// algorithms) require true.
  bool collision_detection = false;
  /// Per-slot channel behaviour (channel/model.hpp). Only
  /// run_node_engine with `batched` off implements the non-clean models;
  /// the fair engines and every batched run require is_clean() and throw
  /// otherwise — the exp pipeline routes non-clean grids onto the exact
  /// node engine at compile() (exp/plan.cpp), where this field is derived
  /// from the spec's channel axis, not read from the spec's
  /// engine_options.
  ChannelModel channel;
  /// Optional per-slot hook (runs with `batched` off only — batched runs
  /// never materialize skipped slots and throw if one is attached); not
  /// owned, may be null. See sim/observer.hpp.
  SlotObserver* observer = nullptr;

  /// Resolves the cap for a given k.
  std::uint64_t resolved_cap(std::uint64_t k) const;

  /// Member-wise value equality (the observer hook compares by pointer) —
  /// what makes ExperimentSpec a comparable value type for the spec-file
  /// round-trip contract (exp/spec_io.hpp).
  bool operator==(const EngineOptions&) const = default;
};

}  // namespace ucr
