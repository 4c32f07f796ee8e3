#include "protocols/exp_backoff.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"
#include "protocols/window_node.hpp"

namespace ucr {

void ExpBackoffParams::validate() const {
  UCR_REQUIRE(r > 1.0, "exponential back-off requires r > 1");
}

ExponentialBackoff::ExponentialBackoff(const ExpBackoffParams& params)
    : params_(params), w_(params.r) {
  params_.validate();
}

std::uint64_t ExponentialBackoff::next_window_slots() {
  const auto slots = static_cast<std::uint64_t>(std::llround(w_));
  UCR_CHECK(slots >= 1, "exponential window must span at least one slot");
  w_ *= params_.r;
  return slots;
}

ProtocolFactory make_exp_backoff_factory(const ExpBackoffParams& params,
                                         std::string name) {
  params.validate();
  if (name.empty()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "Exponential Back-off (r=%g)", params.r);
    name = buf;
  }
  ProtocolFactory f;
  f.name = std::move(name);
  f.window = [params](std::uint64_t) {
    return std::make_unique<ExponentialBackoff>(params);
  };
  f.node = window_node_view(f.window);
  return f;
}

}  // namespace ucr
