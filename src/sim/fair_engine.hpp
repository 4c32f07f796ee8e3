// Aggregate simulation engine for fair protocols under batched arrivals.
//
// Correctness argument (why aggregation is exact, not an approximation):
// under batched arrivals the feedback history — the only input to a
// station's state besides its private coins — is identical at every active
// station, so all active stations hold the same state and transmit with the
// same probability p. The number of transmitters in a slot is therefore
// exactly Binomial(m, p) given (m, p), and the channel outcome depends on it
// only through the category {0, 1, >= 2}. Sampling the category directly
// from its closed-form probabilities yields a process with exactly the same
// joint law of outcomes as the per-node engine — in O(1) per slot.
//
// Window protocols additionally need the exact transmitter count (a
// transmitter leaves the within-window pending pool even on collision); the
// count at slot j of a W-slot window is Binomial(pending, 1/(W - j)) by the
// chain rule on uniform slot choices, sampled with the exact samplers in
// common/samplers.hpp.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"

namespace ucr {

// EngineOptions::batched selects the paper-scale formulation of each
// engine: whole stretches of slots are sampled at once instead of resolved
// one by one, producing a process with exactly the same law of outcomes (no
// approximation is involved) but a different RNG consumption pattern
// wherever a stretch is actually skipped: a batched run and an exact run
// from the same seed are then different sample paths of the same
// distribution. Equivalence is therefore pinned statistically
// (tests/integration), not by golden outputs. Batched runs support no
// EngineOptions::observer — skipped slots are never materialized — and
// throw ContractViolation if one is attached. Both engines require the
// clean channel.

/// Runs a fair slot-probability protocol on a batch of k messages.
/// O(1) work per slot; scales to k = 10^7 makespans on a laptop. The slot
/// law (P[silence], P[success]) comes from a SlotLawCache
/// (common/samplers.hpp): a slot whose (m, p) repeats one of the last two
/// calls no log or exp, a new one costs one log1p and one exp. The cached
/// values are prob_silence/prob_success bit for bit and no draw moves, so
/// runs are byte-identical to uncached ones.
///
/// Batched: over a stretch of slots where the protocol guarantees constant
/// p (FairSlotProtocol::constant_probability_slots), the number of
/// non-success slots before the next success is Geometric(P[success]); the
/// engine draws it in O(1) and splits the skipped slots into
/// silence/collision with one binomial draw. Cost: O(successes +
/// probability changes) — for a constant-p protocol, O(k) total regardless
/// of the makespan. Protocols that return the default hint of 1 take the
/// per-slot step in both modes (bit-identical runs from the same seed).
RunMetrics run_fair_slot_engine(FairSlotProtocol& protocol, std::uint64_t k,
                                Xoshiro256& rng, const EngineOptions& options);

/// Runs a fair contention-window protocol on a batch of k messages.
/// O(1) expected work per slot (one binomial draw).
///
/// Batched: instead of one Binomial(pending, 1/(W-j)) draw per slot, the
/// engine samples each pending station's chosen slot directly (the two
/// formulations are equivalent by the chain rule on uniform slot choices)
/// and walks only the occupied slots. Cost: O(active stations) per window
/// instead of O(W) — the win at paper scale, where monotone back-off
/// windows grow to >> k slots that are almost entirely silent. Very dense
/// windows (W <= pending / 8) keep the per-slot chain, which is cheaper
/// there. expected_transmissions is the sum of per-slot expectations when
/// exact and mirrors the exact RunMetrics::transmissions when batched (the
/// realized count is the conditional expectation given the choices).
RunMetrics run_fair_window_engine(WindowSchedule& schedule, std::uint64_t k,
                                  Xoshiro256& rng,
                                  const EngineOptions& options);

}  // namespace ucr
