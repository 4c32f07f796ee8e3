#include "protocols/log_fails_adaptive.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "sim/node_engine_impl.hpp"

namespace ucr {

void LogFailsParams::validate() const {
  UCR_REQUIRE(xi_t > 0.0 && xi_t <= 0.5,
              "xi_t must be in (0, 1/2] (at most every other slot is BT)");
  UCR_REQUIRE(xi_delta > 0.0 && xi_delta < 1.0, "xi_delta must be in (0, 1)");
  UCR_REQUIRE(xi_beta > 0.0 && xi_beta <= 1.0, "xi_beta must be in (0, 1]");
  UCR_REQUIRE(epsilon >= 0.0 && epsilon < 0.5,
              "epsilon must be a small error probability (or 0 = derive)");
}

double LogFailsState::track_decrease() { return std::exp(1.0); }

LogFailsState::LogFailsState(const LogFailsParams& params, std::uint64_t k)
    : params_(params) {
  params_.validate();
  if (params_.epsilon == 0.0) {
    UCR_REQUIRE(k > 0, "cannot derive epsilon without the workload size");
    params_.epsilon = 1.0 / (static_cast<double>(k) + 1.0);
  }
  bt_period_ = static_cast<std::uint64_t>(std::llround(1.0 / params_.xi_t));
  UCR_CHECK(bt_period_ >= 2, "BT period must be at least 2");
  const double log_inv_eps = lnx(1.0 / params_.epsilon);
  search_threshold_ = static_cast<std::uint64_t>(
      std::ceil(log_inv_eps * log_inv_eps / params_.xi_beta));
  track_threshold_ = static_cast<std::uint64_t>(
      std::ceil(log_inv_eps / params_.xi_beta));
  UCR_CHECK(track_threshold_ >= 1, "fail threshold must be positive");
  bt_prob_ = 1.0 / (1.0 + log2x(1.0 / params_.epsilon));
}

double LogFailsState::transmit_probability() const {
  if (is_bt_step()) return bt_prob_;
  return 1.0 / kappa_;
}

void LogFailsState::advance(bool heard_delivery) {
  if (heard_delivery) {
    searching_ = false;  // the channel is live: switch to tracking
    kappa_ = std::max(kappa_ - track_decrease(), kKappaFloor);
  } else if (!is_bt_step()) {
    // A silent/collided AT step is a "fail"; the estimator is adjusted
    // only once F of them accumulate (hence "Log-fails").
    ++fails_;
    if (fails_ >= fail_threshold()) {
      if (searching_) {
        kappa_ *= 1.0 + params_.xi_delta;
      } else {
        kappa_ += static_cast<double>(fails_);
      }
      fails_ = 0;
    }
  }
  if (++phase_ == bt_period_) phase_ = 0;
}

std::uint64_t LogFailsState::constant_probability_slots() const {
  if (is_bt_step()) return 1;  // the next step is AT with p = 1/kappa
  const std::uint64_t to_bt_step = bt_period_ - phase_;
  // A SEARCH->TRACK switch can leave fails_ at or above the (smaller)
  // TRACK threshold; the very next AT fail then updates kappa.
  const std::uint64_t threshold = fail_threshold();
  const std::uint64_t to_threshold =
      fails_ >= threshold ? 1 : threshold - fails_;
  return to_bt_step < to_threshold ? to_bt_step : to_threshold;
}

void LogFailsState::advance_non_delivery(std::uint64_t count) {
  UCR_CHECK(count <= constant_probability_slots(),
            "bulk advance beyond the constant-probability horizon");
  if (is_bt_step()) {
    // Horizon is 1 here and a BT step is not a fail; replay exactly.
    for (; count > 0; --count) advance(false);
    return;
  }
  fails_ += count;
  // count <= bt_period_ - phase_: at most the final step reaches BT.
  phase_ += count;
  if (phase_ == bt_period_) phase_ = 0;
  if (fails_ >= fail_threshold()) {
    if (searching_) {
      kappa_ *= 1.0 + params_.xi_delta;
    } else {
      kappa_ += static_cast<double>(fails_);
    }
    fails_ = 0;
  }
}

LogFailsAdaptive::LogFailsAdaptive(const LogFailsParams& params,
                                   std::uint64_t k)
    : state_(params, k) {}

double LogFailsAdaptive::transmit_probability() const {
  return state_.transmit_probability();
}

void LogFailsAdaptive::on_slot_end(bool delivery) { state_.advance(delivery); }

std::uint64_t LogFailsAdaptive::constant_probability_slots() const {
  return state_.constant_probability_slots();
}

void LogFailsAdaptive::on_non_delivery_slots(std::uint64_t count) {
  state_.advance_non_delivery(count);
}

LogFailsAdaptiveNode::LogFailsAdaptiveNode(const LogFailsParams& params,
                                           std::uint64_t k)
    : state_(params, k) {}

double LogFailsAdaptiveNode::transmit_probability() {
  return state_.transmit_probability();
}

void LogFailsAdaptiveNode::on_slot_end(const Feedback& fb) {
  if (fb.delivered_mine) return;  // station goes idle
  state_.advance(fb.heard_delivery);
}

std::uint64_t LogFailsAdaptiveNode::stationary_slots() const {
  return state_.constant_probability_slots();
}

void LogFailsAdaptiveNode::on_non_delivery_slots(std::uint64_t count) {
  state_.advance_non_delivery(count);
}

ProtocolFactory make_log_fails_factory(const LogFailsParams& params,
                                       std::string name) {
  params.validate();
  if (name.empty()) {
    name = "Log-Fails Adaptive (" +
           std::to_string(static_cast<int>(std::llround(1.0 / params.xi_t))) +
           ")";
  }
  ProtocolFactory f;
  f.name = std::move(name);
  f.fair_slot = [params](std::uint64_t k) {
    return std::make_unique<LogFailsAdaptive>(params, k);
  };
  // The typed engine instantiation: this file sees the step definitions.
  f.node = NodeView::typed<LogFailsAdaptiveNode>(
      [params](std::uint64_t k, Xoshiro256&) {
        return std::make_unique<LogFailsAdaptiveNode>(params, k);
      });
  return f;
}

}  // namespace ucr
