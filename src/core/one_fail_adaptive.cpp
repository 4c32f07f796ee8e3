#include "core/one_fail_adaptive.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "sim/node_engine_impl.hpp"

namespace ucr {

double OneFailParams::delta_upper_bound() {
  double sum = 0.0;
  double term = 1.0;
  for (int j = 1; j <= 5; ++j) {
    term *= 5.0 / 6.0;
    sum += term;
  }
  return sum;  // = 2.990561...
}

void OneFailParams::validate() const {
  UCR_REQUIRE(delta > std::exp(1.0),
              "One-Fail Adaptive requires delta > e");
  UCR_REQUIRE(delta <= delta_upper_bound(),
              "One-Fail Adaptive requires delta <= sum_{j=1..5}(5/6)^j");
}

namespace {

// Line 8: 1/(1 + log2(sigma + 1)).
double bt_probability(std::uint64_t sigma) {
  return 1.0 / (1.0 + log2x(static_cast<double>(sigma) + 1.0));
}

}  // namespace

OneFailState::OneFailState(const OneFailParams& params)
    : params_(params),
      kappa_(params.delta + 1.0),
      bt_prob_(bt_probability(0)) {
  params_.validate();
}

double OneFailState::transmit_probability() const {
  if (is_bt_step()) return bt_prob_;
  // Line 10: 1/kappa~. kappa~ >= delta + 1 > 1, so this is a probability.
  return 1.0 / kappa_;
}

void OneFailState::advance(bool heard_delivery) {
  const double floor = params_.delta + 1.0;
  if (is_bt_step()) {
    if (heard_delivery) {
      ++sigma_;
      kappa_ = std::max(kappa_ - params_.delta, floor);  // Task 2, BT branch
    }
  } else {
    kappa_ += 1.0;  // Task 1 line 11 (every AT step)
    if (heard_delivery) {
      ++sigma_;
      kappa_ = std::max(kappa_ - params_.delta - 1.0, floor);  // Task 2, AT
    }
  }
  if (heard_delivery) bt_prob_ = bt_probability(sigma_);
  ++step_;
}

OneFailAdaptive::OneFailAdaptive(const OneFailParams& params)
    : state_(params) {}

double OneFailAdaptive::transmit_probability() const {
  return state_.transmit_probability();
}

void OneFailAdaptive::on_slot_end(bool delivery) { state_.advance(delivery); }

OneFailAdaptiveNode::OneFailAdaptiveNode(const OneFailParams& params)
    : state_(params) {}

double OneFailAdaptiveNode::transmit_probability() {
  return state_.transmit_probability();
}

void OneFailAdaptiveNode::on_slot_end(const Feedback& fb) {
  if (fb.delivered_mine) {
    return;  // Task 3: stop upon message delivery; the engine deactivates us.
  }
  state_.advance(fb.heard_delivery);
}

ProtocolFactory make_one_fail_factory(const OneFailParams& params,
                                      std::string name) {
  params.validate();
  ProtocolFactory f;
  f.name = std::move(name);
  f.fair_slot = [params](std::uint64_t) {
    return std::make_unique<OneFailAdaptive>(params);
  };
  // The typed engine instantiation: this file sees the step definitions.
  f.node = NodeView::typed<OneFailAdaptiveNode>(
      [params](std::uint64_t, Xoshiro256&) {
        return std::make_unique<OneFailAdaptiveNode>(params);
      });
  return f;
}

}  // namespace ucr
