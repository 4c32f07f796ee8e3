#include "protocols/poly_backoff.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"
#include "protocols/window_node.hpp"

namespace ucr {

void PolyBackoffParams::validate() const {
  UCR_REQUIRE(c > 0.0, "polynomial back-on requires a positive exponent");
}

PolynomialBackoff::PolynomialBackoff(const PolyBackoffParams& params)
    : params_(params) {
  params_.validate();
}

std::uint64_t PolynomialBackoff::next_window_slots() {
  ++i_;
  const double w = std::pow(static_cast<double>(i_), params_.c);
  const auto slots = static_cast<std::uint64_t>(std::llround(w));
  return slots < 1 ? 1 : slots;
}

ProtocolFactory make_poly_backoff_factory(const PolyBackoffParams& params,
                                          std::string name) {
  params.validate();
  if (name.empty()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "Polynomial Back-on (c=%g)", params.c);
    name = buf;
  }
  ProtocolFactory f;
  f.name = std::move(name);
  f.window = [params](std::uint64_t) {
    return std::make_unique<PolynomialBackoff>(params);
  };
  f.node = window_node_view(f.window);
  return f;
}

}  // namespace ucr
