#include "protocols/known_k.hpp"

#include "common/check.hpp"
#include "sim/node_engine_impl.hpp"

namespace ucr {

KnownKGenie::KnownKGenie(std::uint64_t k) : remaining_(k) {
  UCR_REQUIRE(k > 0, "genie needs a positive k");
}

double KnownKGenie::transmit_probability() const {
  UCR_CHECK(remaining_ > 0, "probability requested after completion");
  return 1.0 / static_cast<double>(remaining_);
}

void KnownKGenie::on_slot_end(bool delivery) {
  if (delivery) {
    UCR_CHECK(remaining_ > 0, "delivery after completion");
    --remaining_;
  }
}

std::uint64_t KnownKGenie::constant_probability_slots() const {
  return ~std::uint64_t{0};  // constant until the next delivery
}

void KnownKGenie::on_non_delivery_slots(std::uint64_t /*count*/) {
  // Non-delivery slots do not change the genie's state.
}

KnownKGenieNode::KnownKGenieNode(std::uint64_t k) : remaining_(k) {
  UCR_REQUIRE(k > 0, "genie needs a positive k");
}

double KnownKGenieNode::transmit_probability() {
  UCR_CHECK(remaining_ > 0, "probability requested after completion");
  return 1.0 / static_cast<double>(remaining_);
}

void KnownKGenieNode::on_slot_end(const Feedback& fb) {
  if (fb.delivered_mine) return;  // engine deactivates this station
  if (fb.heard_delivery) {
    UCR_CHECK(remaining_ > 0, "heard a delivery after completion");
    --remaining_;
  }
}

std::uint64_t KnownKGenieNode::stationary_slots() const {
  return ~std::uint64_t{0};  // constant until the next heard delivery
}

void KnownKGenieNode::on_non_delivery_slots(std::uint64_t /*count*/) {
  // Non-success slots do not change the genie's state.
}

ProtocolFactory make_known_k_factory(std::string name) {
  ProtocolFactory f;
  f.name = std::move(name);
  f.fair_slot = [](std::uint64_t k) {
    return std::make_unique<KnownKGenie>(k);
  };
  // The typed engine instantiation: this file sees the step definitions.
  f.node = NodeView::typed<KnownKGenieNode>(
      [](std::uint64_t k, Xoshiro256&) {
        return std::make_unique<KnownKGenieNode>(k);
      });
  return f;
}

}  // namespace ucr
