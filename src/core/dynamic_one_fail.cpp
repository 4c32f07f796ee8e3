#include "core/dynamic_one_fail.hpp"

#include <algorithm>

#include "sim/node_engine_impl.hpp"

namespace ucr {

DynamicOneFailState::DynamicOneFailState(const OneFailParams& params)
    : params_(params),
      kappa_(params.delta + 1.0),
      ceiling_(2.0 * (params.delta + 1.0)) {
  params_.validate();
}

double DynamicOneFailState::transmit_probability() const {
  return 1.0 / kappa_;
}

void DynamicOneFailState::advance(bool heard_delivery) {
  const double floor = params_.delta + 1.0;
  if (heard_delivery) {
    fast_start_ = false;
    silent_run_ = 0;
    // Same net effect as Algorithm 1's AT success: -(delta).
    kappa_ = std::max(kappa_ - params_.delta, floor);
    return;
  }
  if (fast_start_) {
    kappa_ *= 2.0;
    if (kappa_ > ceiling_) {
      // Sawtooth: restart the sweep one octave higher (see file comment).
      kappa_ = floor;
      ceiling_ *= 2.0;
    }
    return;
  }
  kappa_ += 1.0;  // One-Fail climb
  if (++silent_run_ >= kSilenceLimit) {
    // The channel has gone quiet: our estimate is likely far above the
    // true density. Resweep all scales (see file comment).
    fast_start_ = true;
    silent_run_ = 0;
    kappa_ = floor;
    ceiling_ = 2.0 * floor;
  }
}

DynamicOneFail::DynamicOneFail(const OneFailParams& params)
    : state_(params) {}

double DynamicOneFail::transmit_probability() const {
  return state_.transmit_probability();
}

void DynamicOneFail::on_slot_end(bool delivery) { state_.advance(delivery); }

DynamicOneFailNode::DynamicOneFailNode(const OneFailParams& params)
    : state_(params) {}

double DynamicOneFailNode::transmit_probability() {
  return state_.transmit_probability();
}

void DynamicOneFailNode::on_slot_end(const Feedback& fb) {
  if (fb.delivered_mine) return;  // station goes idle
  state_.advance(fb.heard_delivery);
}

ProtocolFactory make_dynamic_one_fail_factory(const OneFailParams& params,
                                              std::string name) {
  params.validate();
  ProtocolFactory f;
  f.name = std::move(name);
  f.fair_slot = [params](std::uint64_t) {
    return std::make_unique<DynamicOneFail>(params);
  };
  // The typed engine instantiation: this file sees the step definitions.
  f.node = NodeView::typed<DynamicOneFailNode>(
      [params](std::uint64_t, Xoshiro256&) {
        return std::make_unique<DynamicOneFailNode>(params);
      });
  return f;
}

}  // namespace ucr
