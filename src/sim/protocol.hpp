// Protocol interfaces — the contract between contention-resolution
// protocols and the two simulation engines.
//
// Three views of a protocol:
//
//  * NodeProtocol     — one instance per station; the ground-truth view.
//                       Works for any protocol, including non-fair states
//                       (dynamic arrivals). O(m) per slot.
//  * FairSlotProtocol — one *shared* state for all active stations of a
//                       fair slot-probability protocol (all active stations
//                       provably hold identical state under batched
//                       arrivals, because channel feedback is common
//                       knowledge). O(1) per slot.
//  * WindowSchedule   — the window-size generator of a fair contention-
//                       window protocol (each pending station picks exactly
//                       one uniform slot per window).
#pragma once

#include <cstdint>
#include <memory>

#include "channel/slot.hpp"

namespace ucr {

/// Per-station protocol automaton driven by the per-node engine.
class NodeProtocol {
 public:
  virtual ~NodeProtocol() = default;

  /// Probability with which this station transmits in the current slot.
  /// Must be in [0, 1]. Called once per slot while the station is active.
  virtual double transmit_probability() = 0;

  /// End-of-slot feedback (legal observations only, see channel/slot.hpp).
  /// Called once per slot while active; when `fb.delivered_mine` is true the
  /// engine deactivates the station after this call.
  virtual void on_slot_end(const Feedback& fb) = 0;

  /// Batching hint for the per-node fast path (sim/node_engine.hpp): the
  /// number of upcoming slots — counting the current one — over which this
  /// station is *stationary* as long as no slot is a success: its
  /// transmit_probability() stays constant, and its end-of-slot update is
  /// independent of both its own `transmitted` flag and the silence /
  /// collision distinction, so the skipped on_slot_end calls are together
  /// equivalent to one on_non_delivery_slots(count) call. Must be >= 1.
  /// Queried right after transmit_probability() in the same slot.
  ///
  /// This is the per-station analogue of FairSlotProtocol::
  /// constant_probability_slots(), generalized to heterogeneous state: the
  /// batched node engine skips min-over-stations stretches. The
  /// conservative default of 1 keeps every protocol on the exact per-slot
  /// path (bit-identical to a run with EngineOptions::batched off from the
  /// same seed).
  ///
  /// A protocol that resolves its randomness ahead of time can certify
  /// long deterministic stretches even before it first transmits: the
  /// window adapter (protocols/window_node.hpp) pre-draws its one
  /// in-window transmission slot from a private substream, so every slot
  /// it reports has probability exactly 0 or 1 and the certificate spans
  /// the whole silent run to the next probability change. That pattern —
  /// moving protocol randomness out of the engine stream so the remaining
  /// per-slot law is degenerate — is what lets the batched engine skip
  /// dense dynamic cells instead of degenerating to one exact slot per
  /// not-yet-transmitted station.
  virtual std::uint64_t stationary_slots() const { return 1; }

  /// Bulk equivalent of `count` consecutive on_slot_end calls with
  /// non-success feedback; the batched engine uses it to advance a station
  /// across a skipped stretch. Requires count <= stationary_slots() as of
  /// the first skipped slot. The default replays per-slot calls (correct
  /// for any protocol honouring the stationarity contract above, which
  /// makes its state evolution independent of the per-slot feedback
  /// detail); protocols advertising a horizon > 1 should override it with
  /// an O(1) update so skipped slots really cost nothing.
  virtual void on_non_delivery_slots(std::uint64_t count) {
    const Feedback fb{};
    for (std::uint64_t i = 0; i < count; ++i) on_slot_end(fb);
  }
};

/// Shared-state automaton of a fair slot-probability protocol.
class FairSlotProtocol {
 public:
  virtual ~FairSlotProtocol() = default;

  /// Per-station transmission probability for the current slot, in [0, 1].
  virtual double transmit_probability() const = 0;

  /// Advances the shared state; `delivery` is true iff the slot was a
  /// success (every remaining active station heard it).
  virtual void on_slot_end(bool delivery) = 0;

  /// Batching hint for the fast-path engine (sim/fair_engine.hpp): the
  /// number of upcoming slots — counting the current one — over which
  /// transmit_probability() is guaranteed constant as long as no delivery
  /// occurs. Must be >= 1. Protocols whose state drifts every slot (e.g.
  /// One-Fail Adaptive's +1-per-AT-step estimator, or any AT/BT
  /// interleaving) return 1, which makes the batched engine fall back to
  /// the exact per-slot draw. Protocols whose probability changes only on
  /// deliveries may return an unbounded horizon (UINT64_MAX).
  virtual std::uint64_t constant_probability_slots() const { return 1; }

  /// Bulk equivalent of `count` consecutive on_slot_end(false) calls; used
  /// by the batched engine to skip a sampled run of non-delivery slots.
  /// The default replays the per-slot call and is always correct;
  /// protocols that advertise a batching horizon > 1 should override it
  /// with an O(1) update so the skipped slots really cost nothing.
  virtual void on_non_delivery_slots(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) on_slot_end(false);
  }
};

/// Window-size generator of a contention-window protocol.
class WindowSchedule {
 public:
  virtual ~WindowSchedule() = default;

  /// Returns the length in slots (>= 1) of the next contention window.
  virtual std::uint64_t next_window_slots() = 0;
};

}  // namespace ucr
