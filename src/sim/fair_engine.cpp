#include "sim/fair_engine.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "common/samplers.hpp"
#include "sim/observer.hpp"

namespace ucr {

namespace {

void require_fair_contract(std::uint64_t k, const EngineOptions& options) {
  UCR_REQUIRE(k > 0, "workload must contain at least one message");
  UCR_REQUIRE(!options.batched || options.observer == nullptr,
              "batched runs never materialize skipped slots; per-slot "
              "observers require EngineOptions::batched = false");
  UCR_REQUIRE(options.channel.is_clean(),
              "the fair aggregate engines rest on a common-feedback "
              "symmetry that imperfect channel models (channel/model.hpp) "
              "break; non-clean cells run on the exact node engine — the "
              "exp pipeline routes them there automatically");
}

// One exact per-slot step of a fair slot-probability protocol: category
// draw, metric updates, optional observer callback, protocol advance.
void resolve_slot_exact(FairSlotProtocol& protocol, double p,
                        std::uint64_t& m, Xoshiro256& rng,
                        SlotLawCache& law, const EngineOptions& options,
                        RunMetrics& metrics, KahanSum& expected_tx) {
  const SlotCategory cat = law.sample(rng, m, p);
  expected_tx.add(static_cast<double>(m) * p);

  bool delivery = false;
  SlotOutcome outcome = SlotOutcome::kSilence;
  switch (cat) {
    case SlotCategory::kSilence:
      ++metrics.silence_slots;
      break;
    case SlotCategory::kSuccess:
      ++metrics.success_slots;
      ++metrics.deliveries;
      --m;
      delivery = true;
      outcome = SlotOutcome::kSuccess;
      if (options.record_deliveries) {
        metrics.delivery_slots.push_back(metrics.slots);
      }
      break;
    case SlotCategory::kCollision:
      ++metrics.collision_slots;
      outcome = SlotOutcome::kCollision;
      break;
  }
  if (options.observer != nullptr) {
    options.observer->on_slot(
        SlotView{metrics.slots, m + (delivery ? 1 : 0), p, outcome});
  }
  ++metrics.slots;
  protocol.on_slot_end(delivery);
}

// The per-slot chain of one window: one Binomial(pending, 1/(W-j)) draw per
// slot for the stations that have not transmitted yet in this window, over
// the window's first `usable` slots (those the cap lets elapse).
void resolve_window_chain(std::uint64_t window, std::uint64_t usable,
                          std::uint64_t& m, Xoshiro256& rng,
                          const EngineOptions& options, RunMetrics& metrics,
                          KahanSum& expected_tx) {
  std::uint64_t pending = m;  // stations yet to transmit in this window
  for (std::uint64_t j = 0; j < usable; ++j) {
    if (m == 0) break;  // problem solved; the makespan stops here
    if (pending == 0) {
      // Everyone already transmitted: the rest of the window is silent,
      // but it still elapses (later deliveries happen after it). The
      // observer still sees every elapsed slot — RunMetrics and
      // observer-derived traces must agree slot for slot.
      const std::uint64_t take = usable - j;
      if (options.observer != nullptr) {
        for (std::uint64_t s = 0; s < take; ++s) {
          options.observer->on_slot(
              SlotView{metrics.slots + s, m,
                       1.0 / static_cast<double>(window - (j + s)),
                       SlotOutcome::kSilence});
        }
      }
      metrics.slots += take;
      metrics.silence_slots += take;
      break;
    }
    const double hazard = 1.0 / static_cast<double>(window - j);
    const std::uint64_t t = sample_binomial(rng, pending, hazard);
    pending -= t;
    metrics.transmissions += t;
    expected_tx.add(static_cast<double>(pending + t) * hazard);
    SlotOutcome outcome;
    if (t == 0) {
      ++metrics.silence_slots;
      outcome = SlotOutcome::kSilence;
    } else if (t == 1) {
      ++metrics.success_slots;
      ++metrics.deliveries;
      --m;
      if (options.record_deliveries) {
        metrics.delivery_slots.push_back(metrics.slots);
      }
      outcome = SlotOutcome::kSuccess;
    } else {
      ++metrics.collision_slots;
      outcome = SlotOutcome::kCollision;
    }
    if (options.observer != nullptr) {
      options.observer->on_slot(SlotView{
          metrics.slots, m + (outcome == SlotOutcome::kSuccess ? 1 : 0),
          hazard, outcome});
    }
    ++metrics.slots;
  }
}

}  // namespace

RunMetrics run_fair_slot_engine(FairSlotProtocol& protocol, std::uint64_t k,
                                Xoshiro256& rng,
                                const EngineOptions& options) {
  require_fair_contract(k, options);
  RunMetrics metrics;
  metrics.k = k;
  const std::uint64_t cap = options.resolved_cap(k);
  KahanSum expected_tx;  // ~10^7 tiny addends at paper scale
  SlotLawCache law;      // (m, p) repeats across most slots

  std::uint64_t m = k;  // active stations
  while (m > 0 && metrics.slots < cap) {
    const double p = protocol.transmit_probability();
    UCR_CHECK(p >= 0.0 && p <= 1.0,
              "protocol produced a probability outside [0, 1]");
    const std::uint64_t horizon =
        options.batched ? protocol.constant_probability_slots() : 1;
    UCR_CHECK(horizon >= 1, "constant-probability horizon must be >= 1");
    const std::uint64_t stretch = std::min(horizon, cap - metrics.slots);

    if (stretch <= 1) {
      resolve_slot_exact(protocol, p, m, rng, law, options, metrics,
                         expected_tx);
      continue;
    }

    // Constant-p stretch: slots are i.i.d. categorical until the first
    // success, so the non-success run length is Geometric(P[success])
    // truncated at the stretch, and the skipped slots split into silence
    // vs collision with one binomial draw.
    const double p_success = law.success(m, p);
    const std::uint64_t failures =
        sample_geometric_failures(rng, p_success, stretch);
    const bool delivered = failures < stretch;
    std::uint64_t silent = failures;
    if (failures > 0 && p_success < 1.0) {
      const double p_silence = law.silence(m, p);
      const double conditional =
          std::min(1.0, p_silence / (1.0 - p_success));
      silent = sample_binomial(rng, failures, conditional);
    }
    metrics.silence_slots += silent;
    metrics.collision_slots += failures - silent;
    metrics.slots += failures;
    expected_tx.add(static_cast<double>(m) * p *
                    static_cast<double>(failures + (delivered ? 1 : 0)));
    protocol.on_non_delivery_slots(failures);
    if (delivered) {
      ++metrics.success_slots;
      ++metrics.deliveries;
      --m;
      if (options.record_deliveries) {
        metrics.delivery_slots.push_back(metrics.slots);
      }
      ++metrics.slots;
      protocol.on_slot_end(true);
    }
  }

  metrics.expected_transmissions = expected_tx.value();
  metrics.completed = m == 0;
  metrics.validate();
  return metrics;
}

RunMetrics run_fair_window_engine(WindowSchedule& schedule, std::uint64_t k,
                                  Xoshiro256& rng,
                                  const EngineOptions& options) {
  require_fair_contract(k, options);
  RunMetrics metrics;
  metrics.k = k;
  const std::uint64_t cap = options.resolved_cap(k);
  KahanSum expected_tx;

  std::uint64_t m = k;                 // active stations
  std::vector<std::uint8_t> counts;    // dense path: per-offset occupancy
  std::vector<std::uint64_t> choices;  // sorted-walk path: chosen offsets
  std::vector<std::uint64_t> seen;     // bitmap path: offset occupied
  std::vector<std::uint64_t> twice;    // bitmap path: offset occupied >= 2x

  // Per-station slot choices are drawn in bulk (fill_uniform_below) into a
  // fixed-size block, then scattered into the path's occupancy structure —
  // two tight loops instead of one interleaved RNG-call-per-station loop,
  // with the identical u64 consumption order (bit-identical outputs). The
  // block caps the transient memory at 32 KiB regardless of pending size.
  constexpr std::size_t kChoiceBlock = 4096;
  std::vector<std::uint64_t> choice_buf(kChoiceBlock);
  const auto for_each_choice = [&](std::uint64_t window, std::uint64_t count,
                                   auto&& body) {
    for (std::uint64_t done = 0; done < count;) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(count - done, kChoiceBlock));
      fill_uniform_below(rng, window, choice_buf.data(), chunk);
      for (std::size_t i = 0; i < chunk; ++i) body(choice_buf[i]);
      done += chunk;
    }
  };
  while (m > 0 && metrics.slots < cap) {
    const std::uint64_t window = schedule.next_window_slots();
    UCR_CHECK(window >= 1, "window schedule produced an empty window");
    const std::uint64_t pending = m;
    // Slots of this window that can still elapse under the cap.
    const std::uint64_t usable = std::min(window, cap - metrics.slots);

    if (!options.batched || window <= pending / 8) {
      // Exact, or a very dense batched window: the per-slot chain is the
      // cheaper formulation there — O(window) draws beats O(pending)
      // station choices by 8x or more.
      resolve_window_chain(window, usable, m, rng, options, metrics,
                           expected_tx);
      continue;
    }

    if (window <= pending) {
      // Dense window: sample each station's chosen slot (equivalent in
      // law to the per-slot chain, by the chain rule on uniform slot
      // choices) into a small occupancy array and walk the window in slot
      // order — O(pending + window) with per-element costs far below a
      // binomial draw. Counts saturate at 255: the walk only
      // distinguishes {0, 1, >= 2}, and transmissions are counted at draw
      // time.
      counts.assign(static_cast<std::size_t>(usable), 0);
      for_each_choice(window, pending, [&](std::uint64_t c) {
        if (c >= usable) return;
        ++metrics.transmissions;
        std::uint8_t& count = counts[static_cast<std::size_t>(c)];
        if (count != 255) ++count;
      });
      for (std::uint64_t j = 0; j < usable; ++j) {
        const std::uint8_t n = counts[static_cast<std::size_t>(j)];
        ++metrics.slots;
        if (n == 0) {
          ++metrics.silence_slots;
        } else if (n == 1) {
          ++metrics.success_slots;
          ++metrics.deliveries;
          --m;
          if (options.record_deliveries) {
            metrics.delivery_slots.push_back(metrics.slots - 1);
          }
          if (m == 0) break;  // last delivery: the makespan stops here
        } else {
          ++metrics.collision_slots;
        }
      }
      continue;
    }

    // Sparse window (window >> active stations — the paper-scale regime
    // for monotone back-off): sample each pending station's chosen slot
    // directly and resolve only the occupied slots. Equivalent in law to
    // the per-slot chain by the chain rule on uniform slot choices.
    //
    // Occupancy is classified {0, 1, >= 2} per offset with two bitmaps in
    // O(pending + window/64) — no sort. The bitmaps lose the slot order,
    // which is only needed when recording delivery slots, so that case
    // (and the ultra-sparse one where the bitmaps would dwarf the choice
    // list) takes a sort-and-walk fallback.
    const bool bitmap_fits =
        !options.record_deliveries && usable / 64 <= pending;
    if (bitmap_fits) {
      const std::size_t words = static_cast<std::size_t>(usable / 64 + 1);
      seen.assign(words, 0);
      twice.assign(words, 0);
      std::uint64_t max_choice = 0;
      for_each_choice(window, pending, [&](std::uint64_t c) {
        // Stations beyond the cap never get to transmit (the run stops
        // first), exactly as in the per-slot engines.
        if (c >= usable) return;
        ++metrics.transmissions;
        if (c > max_choice) max_choice = c;
        const std::uint64_t bit = std::uint64_t{1} << (c % 64);
        std::uint64_t& word = seen[static_cast<std::size_t>(c / 64)];
        if (word & bit) {
          twice[static_cast<std::size_t>(c / 64)] |= bit;
        } else {
          word |= bit;
        }
      });
      std::uint64_t occupied = 0;
      std::uint64_t collisions = 0;
      for (std::size_t w = 0; w < words; ++w) {
        occupied += static_cast<std::uint64_t>(std::popcount(seen[w]));
        collisions += static_cast<std::uint64_t>(std::popcount(twice[w]));
      }
      const std::uint64_t successes = occupied - collisions;
      metrics.success_slots += successes;
      metrics.deliveries += successes;
      metrics.collision_slots += collisions;
      m -= successes;
      // Every pending station delivered <=> the window ends early, at the
      // last (necessarily singleton) choice.
      const std::uint64_t elapsed = m == 0 ? max_choice + 1 : usable;
      metrics.silence_slots += elapsed - occupied;
      metrics.slots += elapsed;
      continue;
    }

    choices.clear();
    for_each_choice(window, pending, [&](std::uint64_t c) {
      if (c < usable) choices.push_back(c);
    });
    std::sort(choices.begin(), choices.end());

    std::uint64_t elapsed = usable;
    std::uint64_t occupied = 0;
    std::size_t i = 0;
    while (i < choices.size()) {
      const std::uint64_t offset = choices[i];
      std::size_t j = i + 1;
      while (j < choices.size() && choices[j] == offset) ++j;
      const std::uint64_t transmitters = j - i;
      metrics.transmissions += transmitters;
      ++occupied;
      if (transmitters == 1) {
        ++metrics.success_slots;
        ++metrics.deliveries;
        --m;
        if (options.record_deliveries) {
          metrics.delivery_slots.push_back(metrics.slots + offset);
        }
        if (m == 0) {
          // Last delivery: the makespan stops here, mid-window.
          elapsed = offset + 1;
          break;
        }
      } else {
        ++metrics.collision_slots;
      }
      i = j;
    }
    metrics.silence_slots += elapsed - occupied;
    metrics.slots += elapsed;
  }

  // Batched: transmission counting is exact on every path, and the
  // realized count is also the conditional expectation given the slot
  // choices, so the expected-count field mirrors it.
  metrics.expected_transmissions =
      options.batched ? static_cast<double>(metrics.transmissions)
                      : expected_tx.value();
  metrics.completed = m == 0;
  metrics.validate();
  return metrics;
}

}  // namespace ucr
