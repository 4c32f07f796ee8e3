#include "protocols/window_node.hpp"

#include "common/check.hpp"
#include "sim/node_engine_impl.hpp"

namespace ucr {

WindowNodeProtocol::WindowNodeProtocol(std::unique_ptr<WindowSchedule> schedule,
                                       Xoshiro256& engine_rng)
    : schedule_(std::move(schedule)),
      draws_(derive_window_offset_stream(engine_rng)) {
  UCR_REQUIRE(schedule_ != nullptr, "window adapter needs a schedule");
}

void WindowNodeProtocol::fetch_window() {
  window_ = schedule_->next_window_slots();
  UCR_CHECK(window_ >= 1, "window schedule produced an empty window");
  offset_ = 0;
  tx_offset_ = draws_.next_below(window_);
}

double WindowNodeProtocol::transmit_probability() {
  if (offset_ == window_) fetch_window();  // window exhausted (or first call)
  return offset_ == tx_offset_ ? 1.0 : 0.0;
}

void WindowNodeProtocol::on_slot_end(const Feedback& /*fb*/) {
  // The pre-draw fixes the whole window at its start, so feedback carries
  // no information this automaton can use: it transmits at tx_offset_ and
  // only there, delivered or collided. The engine deactivates the station
  // itself on delivered_mine.
  ++offset_;
}

std::uint64_t WindowNodeProtocol::stationary_slots() const {
  // Only meaningful right after transmit_probability() fetched the window
  // (offset_ < window_ then).
  if (offset_ >= window_) return 1;
  if (offset_ < tx_offset_) return tx_offset_ - offset_;  // silent run-up
  if (offset_ == tx_offset_) return 1;  // the transmission slot itself
  return window_ - offset_;             // silent tail to the window end
}

void WindowNodeProtocol::on_non_delivery_slots(std::uint64_t count) {
  if (count == 0) return;
  const std::uint64_t certified = offset_ < window_ && offset_ != tx_offset_
                                      ? (offset_ < tx_offset_
                                             ? tx_offset_ - offset_
                                             : window_ - offset_)
                                      : 0;
  UCR_CHECK(count <= certified,
            "bulk advance beyond the certified stationary stretch");
  offset_ += count;
}

NodeView window_node_view(
    std::function<std::unique_ptr<WindowSchedule>(std::uint64_t k)> schedule) {
  // The typed engine instantiation: this file sees the step definitions.
  return NodeView::typed<WindowNodeProtocol>(
      [schedule = std::move(schedule)](std::uint64_t k, Xoshiro256& rng) {
        return std::make_unique<WindowNodeProtocol>(schedule(k), rng);
      });
}

}  // namespace ucr
