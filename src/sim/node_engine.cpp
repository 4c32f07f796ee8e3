#include "sim/node_engine.hpp"

#include "sim/node_engine_impl.hpp"

namespace ucr {

namespace detail {

// With one active station the attribution is deterministic — the common
// case under sparse arrivals. Otherwise suffix products followed by a
// prefix walk keep the weights exact for p in {0, 1}.
std::size_t attribute_success(const std::vector<double>& probs,
                              std::vector<double>& weights, Xoshiro256& rng) {
  const std::size_t n = probs.size();
  if (n == 1) return 0;
  weights.resize(n);
  double suffix = 1.0;
  for (std::size_t i = n; i-- > 0;) {
    weights[i] = probs[i] * suffix;
    suffix *= 1.0 - probs[i];
  }
  double total = 0.0;
  double prefix = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] *= prefix;
    total += weights[i];
    prefix *= 1.0 - probs[i];
  }
  UCR_CHECK(total > 0.0, "success slot with zero success probability");
  double u = rng.next_double() * total;
  std::size_t chosen = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] <= 0.0) continue;
    chosen = i;  // last positive-weight station absorbs rounding
    if (u < weights[i]) break;
    u -= weights[i];
  }
  UCR_CHECK(chosen < n,
            "failed to attribute the success slot to a transmitter");
  return chosen;
}

}  // namespace detail

// The generic instantiation: virtual calls into any NodeProtocol.
RunMetrics run_node_engine(const NodeFactory& factory,
                           const ArrivalPattern& arrivals, Xoshiro256& rng,
                           const EngineOptions& options) {
  return run_node_engine<NodeProtocol>(factory, arrivals, rng, options);
}

}  // namespace ucr
