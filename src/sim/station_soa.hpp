// Structure-of-arrays station state for the per-node engine.
//
// The engine used to chase a vector of per-station structs (protocol
// pointer, arrival slot, flags, counters) in its per-slot hot loops.
// This class keeps the same logical state as parallel arrays instead:
//
//   protocols_     — the protocol automata, typed by the engine
//                    instantiation: StationSoA<P> holds std::unique_ptr<P>,
//                    so a catalogued final class P (sim/node_engine_impl.hpp)
//                    makes every step a direct, inlinable call, and the
//                    generic P = NodeProtocol fallback keeps virtual calls
//                    for user protocols;
//   arrival_slot_  — latency bookkeeping, one contiguous array;
//   sent_          — per-station transmission attempts (the energy ledger);
//   probs_         — the batched mode's per-slot transmission
//                    probabilities, gathered once per slot so the success
//                    attribution is a tight scan over a contiguous array;
//   transmitted_   — this slot's coin flips, one byte per station.
//
// The per-slot passes (the exact mode's fused probability-and-coin pass,
// the batched mode's law gather and Bernoulli draws, the feedback scan,
// success attribution) each traverse one or two of these arrays. RNG draw
// order is the per-station index order, identical to the old
// struct-of-vectors loops, so engine outputs are bit-identical to the
// pre-SoA layout (docs/ARCHITECTURE.md "SoA station state").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/protocol.hpp"

namespace ucr {

/// Parallel-array station state of run_node_engine, with and without
/// EngineOptions::batched, over stations of protocol type P (a final
/// NodeProtocol subclass, or NodeProtocol itself for the generic engine).
/// Persistent arrays (protocol, arrival slot, attempt count) stay
/// index-aligned across swap_remove; per-slot scratch (probabilities,
/// transmitted flags) is valid only between the gather and the end of the
/// same slot.
template <typename P>
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

  /// What the exact mode's fused pass returns: the probability sum (the
  /// observer's mean-probability numerator) and the transmitter count.
  struct SlotDraw {
    double p_sum = 0.0;
    std::uint64_t transmitters = 0;
  };

  void reserve(std::size_t n) {
    protocols_.reserve(n);
    arrival_slot_.reserve(n);
    sent_.reserve(n);
  }
  std::size_t size() const { return protocols_.size(); }
  bool empty() const { return protocols_.empty(); }

  /// Activates one station: a fresh protocol instance from `factory` (which
  /// may consume `rng`), tagged with its arrival slot.
  template <typename Factory>
  void activate(const Factory& factory, Xoshiro256& rng,
                std::uint64_t arrival_slot) {
    protocols_.push_back(factory(rng));
    arrival_slot_.push_back(arrival_slot);
    sent_.push_back(0);
  }

  /// Exact mode: each station's transmission probability followed at once
  /// by its Bernoulli coin, in index order. Protocols draw nothing in
  /// transmit_probability(), so this consumes the engine stream exactly
  /// like a full gather followed by a full draw pass. Records the flips in
  /// transmitted() and charges the energy ledger. Throws on p outside
  /// [0, 1].
  SlotDraw draw_slot(Xoshiro256& rng) {
    const std::size_t n = protocols_.size();
    transmitted_.resize(n);
    SlotDraw draw;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = protocols_[i]->transmit_probability();
      UCR_CHECK(p >= 0.0 && p <= 1.0,
                "protocol produced a probability outside [0, 1]");
      draw.p_sum += p;
      const bool t = rng.next_bernoulli(p);
      transmitted_[i] = t;
      sent_[i] += t;
      draw.transmitters += t;
    }
    return draw;
  }

  /// Batched mode: every station's transmission probability into the
  /// probs() array, in index order, plus the slot's joint category law and
  /// the min stationarity horizon, in one scan. Throws on p outside
  /// [0, 1].
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

  /// Batched mode, after gather_slot_law: one Bernoulli(probs()[i]) coin
  /// per station, in index order — the same RNG consumption as the
  /// historical per-struct loop. Records the flips in transmitted(),
  /// charges the energy ledger, and returns the transmitter count.
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
  /// Requires target < this slot's transmitter count.
  std::size_t nth_transmitter(std::uint64_t target) const {
    for (std::size_t i = 0; i < transmitted_.size(); ++i) {
      if (!transmitted_[i]) continue;
      if (target == 0) return i;
      --target;
    }
    UCR_CHECK(false, "fewer transmitters than the requested index");
    return transmitted_.size();
  }

  P& protocol(std::size_t i) { return *protocols_[i]; }
  const std::vector<double>& probs() const { return probs_; }
  bool transmitted(std::size_t i) const { return transmitted_[i] != 0; }
  std::uint64_t arrival_slot(std::size_t i) const { return arrival_slot_[i]; }
  std::uint64_t sent(std::size_t i) const { return sent_[i]; }
  void add_sent(std::size_t i) { ++sent_[i]; }

  /// Removes station i by swapping with the last station (order is
  /// irrelevant to the model). Per-slot scratch is not remapped — it is
  /// stale after any removal.
  void swap_remove(std::size_t i) {
    UCR_CHECK(i < protocols_.size(), "swap_remove index out of range");
    std::swap(protocols_[i], protocols_.back());
    protocols_.pop_back();
    arrival_slot_[i] = arrival_slot_.back();
    arrival_slot_.pop_back();
    sent_[i] = sent_.back();
    sent_.pop_back();
  }

  /// Largest attempt count among still-active stations (the end-of-run
  /// energy fold for stations that never drained).
  std::uint64_t max_sent() const {
    std::uint64_t max = 0;
    for (const std::uint64_t s : sent_) max = std::max(max, s);
    return max;
  }

 private:
  std::vector<std::unique_ptr<P>> protocols_;
  std::vector<std::uint64_t> arrival_slot_;
  std::vector<std::uint64_t> sent_;
  // Per-slot scratch, index-aligned with the persistent arrays.
  std::vector<double> probs_;
  std::vector<std::uint8_t> transmitted_;
};

}  // namespace ucr
