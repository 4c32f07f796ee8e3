// Log-Fails Adaptive — the comparison baseline of the paper, i.e. the
// k-selection protocol of Fernández Anta & Mosteiro (DMAA 2(4), 2010),
// reference [7] of the paper.
//
// RECONSTRUCTION NOTICE (see DESIGN.md §5.1): [7]'s pseudocode is not
// reproduced in the paper, so this is a faithful-in-spirit reconstruction
// from the paper's own description of it:
//   * two interleaved algorithms AT/BT, like One-Fail Adaptive;
//   * the BT transmission probability is *fixed* (vs. OFA's adaptive one);
//   * the AT probability is 1/kappa~, with the estimator updated only
//     "after some steps without communication" (vs. OFA's every step) —
//     hence the name the paper gives it: *Log-fails* Adaptive;
//   * it requires knowledge of epsilon <= 1/(n+1), i.e. of a bound on the
//     number of stations; the evaluation uses epsilon ~= 1/(k+1).
//
// Reconstruction (two phases, each updating only after a logarithmic
// number of accumulated silent AT steps — "fails"):
//
//   SEARCH (no delivery heard yet): every F_s =
//   ceil((1/xi_beta) ln^2(1/epsilon)) fails multiply kappa~ by
//   (1 + xi_delta). The quadratic threshold (a union bound over the whole
//   climb, which must succeed w.p. 1-epsilon) is the expensive
//   Theta(log^3) cold start that reproduces [7]'s observed pathology at
//   small-to-moderate k.
//
//   TRACK (after the first delivery): every F_t =
//   ceil((1/xi_beta) ln(1/epsilon)) accumulated silent AT steps add F_t to
//   kappa~ (a batched version of One-Fail Adaptive's +1 per AT step), and
//   every delivery subtracts e from kappa~. The drift balance
//   (+1 per silent AT step amortized, -e per delivery) makes the estimator
//   lock onto the true density, for an asymptotic per-delivery cost of
//   ~(e+1) AT steps — matching [7]'s published (e+1+xi)k bound and hence
//   the Table 1 "Analysis" entries 7.8 (xi_t = 1/2) and 4.4 (xi_t = 1/10)
//   once divided by the AT-step density 1 - xi_t.
//
// A BT step occurs once every round(1/xi_t) slots (the only reading of
// xi_t under which [7]'s two analysis ratios follow from its bound).
// BT transmits with the fixed probability 1/(1 + log2(1/epsilon)).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/protocol.hpp"
#include "sim/runner.hpp"

namespace ucr {

/// Tunables of Log-Fails Adaptive (defaults are the paper's choices).
struct LogFailsParams {
  /// Interleaving fraction: one BT step every round(1/xi_t) slots.
  double xi_t = 0.5;
  /// Multiplicative estimator increase factor (1 + xi_delta) in SEARCH.
  double xi_delta = 0.1;
  /// Fail-threshold scale: F_s = ceil((1/xi_beta) ln^2(1/epsilon)) during
  /// SEARCH, F_t = ceil((1/xi_beta) ln(1/epsilon)) during TRACK.
  double xi_beta = 0.1;
  /// Error parameter; must satisfy epsilon <= 1/(k+1). 0 means "derive
  /// 1/(k+1) from the workload when the factory is instantiated".
  double epsilon = 0.0;

  void validate() const;
};

/// Shared state machine (see file comment for the reconstruction).
class LogFailsState {
 public:
  /// `k` is used only to derive epsilon when params.epsilon == 0.
  LogFailsState(const LogFailsParams& params, std::uint64_t k);

  bool is_bt_step() const { return phase_ == 0; }
  double transmit_probability() const;
  void advance(bool heard_delivery);

  /// Slots (including the current one) over which transmit_probability()
  /// stays constant absent a delivery: up to the next BT step or the next
  /// fail-threshold crossing, whichever comes first. Always >= 1; the
  /// batched fair engine uses it to resolve whole runs of AT fails at
  /// once.
  std::uint64_t constant_probability_slots() const;

  /// Bulk equivalent of `count` advance(false) calls. Requires
  /// count <= constant_probability_slots(): every skipped step is then an
  /// AT fail and at most the final one crosses the fail threshold.
  void advance_non_delivery(std::uint64_t count);

  /// True while no delivery has been heard yet (multiplicative climb).
  bool in_search_phase() const { return searching_; }

  double kappa_estimate() const { return kappa_; }
  std::uint64_t fail_count() const { return fails_; }
  /// The active threshold (SEARCH or TRACK value depending on the phase).
  std::uint64_t fail_threshold() const {
    return searching_ ? search_threshold_ : track_threshold_;
  }
  std::uint64_t search_threshold() const { return search_threshold_; }
  std::uint64_t track_threshold() const { return track_threshold_; }
  std::uint64_t bt_period() const { return bt_period_; }
  double bt_probability() const { return bt_prob_; }

  /// Initial (and minimum) estimator value.
  static constexpr double kKappaFloor = 2.0;
  /// TRACK-phase decrease per delivery (e; see file comment).
  static double track_decrease();

 private:
  LogFailsParams params_;
  std::uint64_t bt_period_;
  std::uint64_t search_threshold_;
  std::uint64_t track_threshold_;
  double bt_prob_;
  double kappa_ = kKappaFloor;
  bool searching_ = true;
  std::uint64_t fails_ = 0;
  // step % bt_period_ of the 1-based communication step, advanced
  // incrementally so that no step divides.
  std::uint64_t phase_ = 1;
};

/// Fair-engine view.
class LogFailsAdaptive final : public FairSlotProtocol {
 public:
  LogFailsAdaptive(const LogFailsParams& params, std::uint64_t k);

  double transmit_probability() const override;
  void on_slot_end(bool delivery) override;

  std::uint64_t constant_probability_slots() const override;
  void on_non_delivery_slots(std::uint64_t count) override;

  const LogFailsState& state() const { return state_; }

 private:
  LogFailsState state_;
};

/// Per-node view.
class LogFailsAdaptiveNode final : public NodeProtocol {
 public:
  LogFailsAdaptiveNode(const LogFailsParams& params, std::uint64_t k);

  double transmit_probability() override;
  void on_slot_end(const Feedback& fb) override;

  /// Same stationarity horizon as the fair view: the per-station update
  /// ignores the station's own transmissions (fails count silent *and*
  /// collided AT steps alike), so absent a delivery the state is a pure
  /// function of elapsed slots up to the next BT step or threshold
  /// crossing.
  std::uint64_t stationary_slots() const override;
  void on_non_delivery_slots(std::uint64_t count) override;

  const LogFailsState& state() const { return state_; }

 private:
  LogFailsState state_;
};

/// Factory; the default name encodes xi_t the way the paper labels curves,
/// e.g. "Log-Fails Adaptive (2)" for xi_t = 1/2.
ProtocolFactory make_log_fails_factory(const LogFailsParams& params = {},
                                       std::string name = "");

}  // namespace ucr
