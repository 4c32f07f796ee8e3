// Exact discrete samplers used by the aggregate simulation engine.
//
// The fair-protocol engine replaces per-station coin flips with draws of the
// *number of transmitters* in a slot. Two regimes:
//
//  * slot-probability protocols only need the category {0, 1, >=2}, sampled
//    in O(1) from the closed-form probabilities (see sample_slot_category).
//    An engine that asks for the same law slot after slot keeps it in a
//    SlotLawCache: no transcendental call on a repeated (m, p), one log1p
//    and one exp on a new one, and the same values and draws as without;
//  * window protocols need the exact transmitter count, i.e. a true
//    Binomial(n, p) sample for n up to 10^7 and arbitrary p.
//
// Binomial sampling is implemented from scratch (std::binomial_distribution
// is not reproducible across standard libraries):
//  * inversion (CDF walk) when n*min(p,1-p) < 12 — expected O(np) work;
//  * BTRS, Hörmann's transformed-rejection algorithm with squeeze
//    ("The generation of binomial random variates", W. Hörmann, 1993),
//    otherwise — exact, O(1) expected work.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"

namespace ucr {

/// Outcome category of a slot where m stations transmit independently
/// with probability p each (matches channel::SlotOutcome semantics).
enum class SlotCategory : std::uint8_t {
  kSilence = 0,
  kSuccess = 1,
  kCollision = 2
};

/// The category law of one slot where m stations transmit with
/// probability p each: P0 = (1-p)^m and P1 = m p (1-p)^(m-1). of() computes
/// L = log1p(-p) once and P0 = exp(m L); P1 = m p exp((m-1) L) waits for
/// its first use. These are the double operations of prob_silence and
/// prob_success (common/mathx.hpp), special cases p == 0 and p == 1
/// included, so the values agree with them bit for bit.
struct SlotLaw {
  /// Requires 0 <= p <= 1.
  static SlotLaw of(std::uint64_t m, double p);

  /// P1, bit for bit prob_success(m, p); computed on the first call.
  double success() {
    if (p1 < 0.0) {
      const double md = static_cast<double>(m);
      p1 = md * p * std::exp((md - 1.0) * log_q);
    }
    return p1;
  }

  /// One uniform draw u: silence when u < P0, success when u < P0 + P1,
  /// collision otherwise (P1 is needed only when u >= P0).
  SlotCategory draw(Xoshiro256& rng) {
    const double u = rng.next_double();
    if (u < p0) return SlotCategory::kSilence;
    if (u < p0 + success()) return SlotCategory::kSuccess;
    return SlotCategory::kCollision;
  }

  std::uint64_t m = 0;
  double p = -1.0;  // matches no valid probability: an empty cache entry
  double log_q = 0.0;  // log1p(-p)
  double p0 = 1.0;   // bit for bit prob_silence(m, p)
  double p1 = -1.0;  // negative until first needed
};

/// Draws the category of Binomial(m, p) in O(1): 0 -> silence,
/// 1 -> success, >=2 -> collision, by SlotLaw::of(m, p).draw(rng).
/// m == 0 or p == 0 is silence without a draw.
SlotCategory sample_slot_category(Xoshiro256& rng, std::uint64_t m, double p);

/// The SlotLaw of the last two (m, p) keys, for a caller that asks for
/// the same law slot after slot. Fixed size, no allocation.
///
/// The fair slot engine is such a caller: m changes only on a delivery,
/// and the adaptive protocols alternate between two probabilities (their
/// AT and BT steps) that themselves change rarely. Two entries keyed by
/// exact equality of (m, p) therefore hit on most slots, and a hit calls
/// no log or exp; a miss costs one log1p and one exp. The values are
/// SlotLaw's, and the cache adds, drops or moves no random draw, so a
/// cached run is the uncached run, byte for byte.
class SlotLawCache {
 public:
  /// Same category from the same draw as sample_slot_category(rng, m, p).
  SlotCategory sample(Xoshiro256& rng, std::uint64_t m, double p) {
    UCR_REQUIRE(p >= 0.0 && p <= 1.0,
                "transmission probability out of range");
    if (m == 0 || p == 0.0) return SlotCategory::kSilence;
    return lookup(m, p).draw(rng);
  }

  /// prob_silence(m, p), bit for bit.
  double silence(std::uint64_t m, double p) { return lookup(m, p).p0; }

  /// prob_success(m, p), bit for bit.
  double success(std::uint64_t m, double p) { return lookup(m, p).success(); }

 private:
  SlotLaw& lookup(std::uint64_t m, double p) {
    for (unsigned i = 0; i < 2; ++i) {
      if (entries_[i].m == m && entries_[i].p == p) {
        victim_ = i ^ 1U;
        return entries_[i];
      }
    }
    // Replace the least recently used entry.
    SlotLaw& law = entries_[victim_];
    victim_ ^= 1U;
    law = SlotLaw::of(m, p);
    return law;
  }

  SlotLaw entries_[2];
  unsigned victim_ = 0;
};

/// Exact Binomial(n, p) sample. Requires 0 <= p <= 1.
std::uint64_t sample_binomial(Xoshiro256& rng, std::uint64_t n, double p);

/// Number of failures before the first success in i.i.d. Bernoulli(p)
/// trials, truncated at `limit`: returns min(Geometric(p), limit), where
/// Geometric(p) counts failures (support 0, 1, 2, ...). Returns `limit`
/// when p == 0. Requires 0 <= p <= 1. Consumes exactly one uniform draw —
/// this is what lets the batched fair engine resolve a whole constant-p
/// run of slots in O(1).
std::uint64_t sample_geometric_failures(Xoshiro256& rng, double p,
                                        std::uint64_t limit);

/// Exact Poisson(lambda) sample (inversion for small lambda, split-and-sum
/// recursion for large lambda). Used by the dynamic-arrival workload.
std::uint64_t sample_poisson(Xoshiro256& rng, double lambda);

/// Bulk uniform bounded draws: fills out[0..n) with values in [0, bound),
/// consuming the generator's u64 stream exactly as n sequential
/// next_below(bound) calls would (same outputs, same state advance) — the
/// SoA window paths of the batched fair engine draw whole per-station
/// choice arrays through this instead of one call per station, and the
/// bit-identity of the batched engine's pinned outputs survives because
/// the consumption order is unchanged.
///
/// Works for any generator with fill_u64/next_u64 (Xoshiro256, CounterRng).
/// Requires bound > 0.
template <typename Rng>
void fill_uniform_below(Rng& rng, std::uint64_t bound, std::uint64_t* out,
                        std::size_t n) {
  UCR_REQUIRE(bound > 0, "fill_uniform_below requires a positive bound");
  // Lemire's unbiased bounded generation over a prefetched block of raw
  // u64s. Each round fetches exactly one u64 per still-needed output; the
  // rare rejection retries consume the following buffered values (the
  // buffer is a stream prefix, so order is preserved), falling back to
  // direct draws when the block is drained, and the shortfall of outputs
  // is covered by the next round.
  constexpr std::size_t kChunk = 2048;
  std::uint64_t buf[kChunk];
  std::size_t produced = 0;
  while (produced < n) {
    const std::size_t chunk = std::min(n - produced, kChunk);
    rng.fill_u64(buf, chunk);
    std::size_t bi = 0;
    while (bi < chunk) {
      std::uint64_t x = buf[bi++];
      __uint128_t m = static_cast<__uint128_t>(x) * bound;
      auto lo = static_cast<std::uint64_t>(m);
      if (lo < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
          x = bi < chunk ? buf[bi++] : rng.next_u64();
          m = static_cast<__uint128_t>(x) * bound;
          lo = static_cast<std::uint64_t>(m);
        }
      }
      out[produced++] = static_cast<std::uint64_t>(m >> 64);
    }
  }
}

namespace detail {
/// Inversion sampler; exposed for targeted unit tests. Requires
/// n * min(p, 1-p) small enough that (1-p)^n does not underflow.
std::uint64_t binomial_inversion(Xoshiro256& rng, std::uint64_t n, double p);

/// BTRS transformed-rejection sampler; exposed for targeted unit tests.
/// Requires p <= 0.5 and n*p >= 10.
std::uint64_t binomial_btrs(Xoshiro256& rng, std::uint64_t n, double p);
}  // namespace detail

}  // namespace ucr
