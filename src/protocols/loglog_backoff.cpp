#include "protocols/loglog_backoff.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "protocols/window_node.hpp"

namespace ucr {

void LogLogParams::validate() const {
  UCR_REQUIRE(r >= 2.0, "LogLog-Iterated Back-off requires r >= 2");
}

LogLogIteratedBackoff::LogLogIteratedBackoff(const LogLogParams& params)
    : params_(params), w_(params.r) {
  params_.validate();
}

std::uint64_t LogLogIteratedBackoff::next_window_slots() {
  const auto slots = static_cast<std::uint64_t>(std::llround(w_));
  UCR_CHECK(slots >= 1, "monotone window must span at least one slot");
  w_ *= 1.0 + 1.0 / loglog2_clamped(w_, 1.0);
  return slots;
}

ProtocolFactory make_loglog_factory(const LogLogParams& params,
                                    std::string name) {
  params.validate();
  ProtocolFactory f;
  f.name = std::move(name);
  f.window = [params](std::uint64_t) {
    return std::make_unique<LogLogIteratedBackoff>(params);
  };
  f.node = window_node_view(f.window);
  return f;
}

}  // namespace ucr
