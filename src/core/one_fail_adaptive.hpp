// One-Fail Adaptive — Algorithm 1 of the paper (the primary contribution).
//
// Two interleaved sub-algorithms handle different contention regimes:
//  * AT (odd communication steps): transmit with probability 1/kappa~, where
//    kappa~ is a *density estimator* raised by 1 every AT step and lowered
//    by delta+1 on every reception (so the net effect of a successful AT
//    step is -delta);
//  * BT (even communication steps): transmit with probability
//    1/(1 + log2(sigma + 1)), where sigma counts messages received so far —
//    intended for the regime where only O(log) messages remain.
//
// Constant: e < delta <= sum_{j=1..5} (5/6)^j ≈ 2.9906; the paper's
// evaluation uses delta = 2.72.
//
// Theorem 1: solves static k-selection within 2(delta+1)k + O(log^2 k)
// steps with probability at least 1 - 2/(1+k). With delta = 2.72 the linear
// coefficient is 7.44 — the "7.4" analysis entry of Table 1.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/protocol.hpp"
#include "sim/runner.hpp"

namespace ucr {

/// Tunables of One-Fail Adaptive.
struct OneFailParams {
  /// The paper's delta; must satisfy e < delta <= sum_{j=1..5}(5/6)^j.
  double delta = 2.72;

  /// Largest admissible delta: sum_{j=1..5} (5/6)^j.
  static double delta_upper_bound();

  /// Throws ContractViolation if delta is outside the admissible range.
  void validate() const;
};

/// The per-station state machine of Algorithm 1, written once and shared by
/// both engine views. Communication steps are numbered from 1; step t is a
/// BT step iff t ≡ 0 (mod 2), matching the pseudocode.
class OneFailState {
 public:
  explicit OneFailState(const OneFailParams& params);

  /// True if the *current* step (the one whose probability
  /// transmit_probability() reports) is a BT step.
  bool is_bt_step() const { return step_ % 2 == 0; }

  /// Transmission probability for the current step (Algorithm 1 lines 8/10).
  double transmit_probability() const;

  /// Applies the end-of-step updates (Task 1 line 11 and Task 2) and moves
  /// to the next step. `heard_delivery` is true iff some other station's
  /// message was delivered in this step.
  void advance(bool heard_delivery);

  double kappa_estimate() const { return kappa_; }
  std::uint64_t sigma() const { return sigma_; }
  std::uint64_t step() const { return step_; }
  const OneFailParams& params() const { return params_; }

 private:
  OneFailParams params_;
  double kappa_;          // the density estimator kappa~
  std::uint64_t sigma_ = 0;  // messages received so far
  double bt_prob_;           // line 8's probability, recomputed per sigma_
  std::uint64_t step_ = 1;   // current communication step (1-based)
};

/// Fair-engine view (shared state of all active stations).
class OneFailAdaptive final : public FairSlotProtocol {
 public:
  explicit OneFailAdaptive(const OneFailParams& params = {});

  double transmit_probability() const override;
  void on_slot_end(bool delivery) override;

  /// The estimator moves every AT step and AT/BT steps alternate, so no
  /// two consecutive slots share a probability: the batched engine
  /// degenerates to (and stays bit-identical with) the exact per-slot
  /// path.
  std::uint64_t constant_probability_slots() const override { return 1; }

  const OneFailState& state() const { return state_; }

 private:
  OneFailState state_;
};

/// Per-node view (one instance per station).
class OneFailAdaptiveNode final : public NodeProtocol {
 public:
  explicit OneFailAdaptiveNode(const OneFailParams& params = {});

  double transmit_probability() override;
  void on_slot_end(const Feedback& fb) override;

  const OneFailState& state() const { return state_; }

 private:
  OneFailState state_;
};

/// Bundles both views for the experiment runner.
ProtocolFactory make_one_fail_factory(const OneFailParams& params = {},
                                      std::string name = "One-Fail Adaptive");

}  // namespace ucr
