// Structure-of-arrays station state for the per-node engines.
//
// The engines used to chase a vector of per-station structs (protocol
// pointer, arrival slot, flags, counters) in their per-slot hot loops.
// This class keeps the same logical state as parallel arrays instead:
//
//   protocols_     — the polymorphic protocol automata (pointer-chased by
//                    necessity: protocol state machines are heterogeneous);
//   arrival_slot_  — latency bookkeeping, one contiguous array;
//   sent_          — per-station transmission attempts (the energy ledger);
//   probs_         — this slot's transmission probabilities, gathered once
//                    per slot so every later pass is a tight scan over a
//                    contiguous double array;
//   transmitted_   — this slot's coin flips, one byte per station.
//
// The per-slot passes (probability gather, Bernoulli draws, feedback scan,
// success attribution) each traverse exactly one or two of these arrays,
// which is what lets the engines' per-slot work stay branch-light and
// cache-friendly at large active-station counts. RNG draw order is the
// per-station index order, identical to the old struct-of-vectors loops,
// so engine outputs are bit-identical to the pre-SoA layout
// (docs/ARCHITECTURE.md "SoA station state").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/node_engine.hpp"
#include "sim/protocol.hpp"

namespace ucr {

/// Parallel-array station state of run_node_engine, with and without
/// EngineOptions::batched. Persistent arrays (protocol, arrival slot,
/// attempt count) stay index-aligned across swap_remove; per-slot scratch
/// (probabilities, transmitted flags) is valid only between the gather and
/// the end of the same slot.
class StationSoA {
 public:
  /// Joint law of one slot over the current active set, accumulated during
  /// the probability gather: q = P[silence], s = P[success] (the stable
  /// station-by-station recurrence — exact for p in {0, 1}, no
  /// catastrophic cancellation for tiny p), p_sum = expected transmitter
  /// count, and the joint stationarity horizon (min over stations).
  struct SlotLaw {
    std::uint64_t horizon = ~std::uint64_t{0};
    double q = 1.0;
    double s = 0.0;
    double p_sum = 0.0;
  };

  void reserve(std::size_t n);
  std::size_t size() const { return protocols_.size(); }
  bool empty() const { return protocols_.empty(); }

  /// Activates one station: a fresh protocol instance from `factory` (which
  /// may consume `rng`), tagged with its arrival slot.
  void activate(const NodeFactory& factory, Xoshiro256& rng,
                std::uint64_t arrival_slot);

  /// Pass 1 (exact mode): gathers every station's transmission
  /// probability into the probs() array, in index order. Returns the sum
  /// (the observer's mean-probability numerator). Throws on p outside
  /// [0, 1].
  double gather_probabilities() {
    const std::size_t n = protocols_.size();
    probs_.resize(n);
    double p_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = protocols_[i]->transmit_probability();
      UCR_CHECK(p >= 0.0 && p <= 1.0,
                "protocol produced a probability outside [0, 1]");
      probs_[i] = p;
      p_sum += p;
    }
    return p_sum;
  }

  /// Pass 1 (batched mode): gather_probabilities plus the slot's joint
  /// category law and the min stationarity horizon, in one scan.
  SlotLaw gather_slot_law() {
    const std::size_t n = protocols_.size();
    probs_.resize(n);
    SlotLaw law;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = protocols_[i]->transmit_probability();
      UCR_CHECK(p >= 0.0 && p <= 1.0,
                "protocol produced a probability outside [0, 1]");
      probs_[i] = p;
      law.horizon = std::min(law.horizon, protocols_[i]->stationary_slots());
      law.s = law.s * (1.0 - p) + law.q * p;
      law.q *= 1.0 - p;
      law.p_sum += p;
    }
    return law;
  }

  /// Pass 2: one Bernoulli(probs()[i]) coin per station, in index order —
  /// the same RNG consumption as the historical per-struct loop. Records
  /// the flips in transmitted(), charges the energy ledger, and returns
  /// the transmitter count.
  std::uint64_t draw_transmissions(Xoshiro256& rng) {
    const std::size_t n = probs_.size();
    transmitted_.resize(n);
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool t = rng.next_bernoulli(probs_[i]);
      transmitted_[i] = t;
      sent_[i] += t;
      count += t;
    }
    return count;
  }

  /// Index of the `target`-th transmitter (0-based) of this slot's flips.
  /// Requires target < the count returned by draw_transmissions.
  std::size_t nth_transmitter(std::uint64_t target) const {
    for (std::size_t i = 0; i < transmitted_.size(); ++i) {
      if (!transmitted_[i]) continue;
      if (target == 0) return i;
      --target;
    }
    UCR_CHECK(false, "fewer transmitters than the requested index");
    return transmitted_.size();
  }

  NodeProtocol& protocol(std::size_t i) { return *protocols_[i]; }
  const std::vector<double>& probs() const { return probs_; }
  bool transmitted(std::size_t i) const { return transmitted_[i] != 0; }
  std::uint64_t arrival_slot(std::size_t i) const { return arrival_slot_[i]; }
  std::uint64_t sent(std::size_t i) const { return sent_[i]; }
  void add_sent(std::size_t i) { ++sent_[i]; }

  /// Removes station i by swapping with the last station (order is
  /// irrelevant to the model). Per-slot scratch is not remapped — it is
  /// stale after any removal.
  void swap_remove(std::size_t i);

  /// Largest attempt count among still-active stations (the end-of-run
  /// energy fold for stations that never drained).
  std::uint64_t max_sent() const;

 private:
  std::vector<std::unique_ptr<NodeProtocol>> protocols_;
  std::vector<std::uint64_t> arrival_slot_;
  std::vector<std::uint64_t> sent_;
  // Per-slot scratch, index-aligned with the persistent arrays.
  std::vector<double> probs_;
  std::vector<std::uint8_t> transmitted_;
};

}  // namespace ucr
