#include "common/samplers.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/mathx.hpp"

namespace ucr {

SlotLaw SlotLaw::of(std::uint64_t m, double p) {
  // The special cases and formulas of pow_one_minus and prob_success.
  UCR_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  SlotLaw law;
  law.m = m;
  law.p = p;
  if (m == 0 || p == 0.0) {
    law.p1 = 0.0;
  } else if (p == 1.0) {
    law.p0 = 0.0;
    law.p1 = m == 1 ? 1.0 : 0.0;
  } else {
    law.log_q = std::log1p(-p);
    law.p0 = std::exp(static_cast<double>(m) * law.log_q);
  }
  return law;
}

SlotCategory sample_slot_category(Xoshiro256& rng, std::uint64_t m, double p) {
  UCR_REQUIRE(p >= 0.0 && p <= 1.0, "transmission probability out of range");
  if (m == 0 || p == 0.0) return SlotCategory::kSilence;
  return SlotLaw::of(m, p).draw(rng);
}

namespace detail {

namespace {

// ln Gamma(x) for x > 0. std::lgamma writes the global `signgam`, a data
// race when several threads sample at once; the reentrant variant returns
// the same value and keeps the sign local.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

std::uint64_t binomial_inversion(Xoshiro256& rng, std::uint64_t n, double p) {
  // CDF walk from k = 0; expected number of iterations is n*p + O(sqrt(np)).
  const double q = pow_one_minus(p, static_cast<double>(n));
  UCR_CHECK(q > 0.0, "inversion sampler used where (1-p)^n underflows");
  const double s = p / (1.0 - p);
  double f = q;
  double u = rng.next_double();
  std::uint64_t k = 0;
  while (u > f && k < n) {
    u -= f;
    ++k;
    f *= s * (static_cast<double>(n - k + 1) / static_cast<double>(k));
  }
  return k;
}

std::uint64_t binomial_btrs(Xoshiro256& rng, std::uint64_t n, double p) {
  // Hörmann (1993), algorithm BTRS (transformed rejection with squeeze).
  UCR_REQUIRE(p > 0.0 && p <= 0.5, "BTRS requires 0 < p <= 0.5");
  const double nd = static_cast<double>(n);
  UCR_REQUIRE(nd * p >= 10.0, "BTRS requires n*p >= 10");

  const double q = 1.0 - p;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / q);
  const double m = std::floor((nd + 1.0) * p);
  const double h = log_gamma(m + 1.0) + log_gamma(nd - m + 1.0);

  for (;;) {
    const double u = rng.next_double() - 0.5;
    double v = rng.next_double();
    const double us = 0.5 - std::fabs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) {
      return static_cast<std::uint64_t>(kd);
    }
    v = std::log(v * alpha / (a / (us * us) + b));
    if (v <= h - log_gamma(kd + 1.0) - log_gamma(nd - kd + 1.0) +
                 (kd - m) * lpq) {
      return static_cast<std::uint64_t>(kd);
    }
  }
}

}  // namespace detail

std::uint64_t sample_binomial(Xoshiro256& rng, std::uint64_t n, double p) {
  UCR_REQUIRE(p >= 0.0 && p <= 1.0, "binomial probability out of range");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;

  // Work with p' = min(p, 1-p) and mirror the result if we flipped.
  const bool flipped = p > 0.5;
  const double pp = flipped ? 1.0 - p : p;
  const double mean = static_cast<double>(n) * pp;

  std::uint64_t k;
  if (mean < 12.0) {
    k = detail::binomial_inversion(rng, n, pp);
  } else {
    k = detail::binomial_btrs(rng, n, pp);
  }
  return flipped ? n - k : k;
}

std::uint64_t sample_geometric_failures(Xoshiro256& rng, double p,
                                        std::uint64_t limit) {
  UCR_REQUIRE(p >= 0.0 && p <= 1.0, "geometric probability out of range");
  if (p == 1.0) return 0;
  if (p == 0.0 || limit == 0) return limit;
  // Inversion: F = floor(ln(1-u) / ln(1-p)) with u ~ U[0,1). Computed via
  // log1p for stability at the small p the protocols produce (p ~ 1/k).
  const double u = rng.next_double();
  const double failures =
      std::floor(std::log1p(-u) / std::log1p(-p));
  if (!(failures < static_cast<double>(limit))) return limit;
  return static_cast<std::uint64_t>(failures);
}

std::uint64_t sample_poisson(Xoshiro256& rng, double lambda) {
  UCR_REQUIRE(lambda >= 0.0, "Poisson rate must be non-negative");
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth inversion on the multiplicative scale.
    const double limit = std::exp(-lambda);
    double prod = rng.next_double();
    std::uint64_t k = 0;
    while (prod > limit) {
      prod *= rng.next_double();
      ++k;
    }
    return k;
  }
  // Split recursively: Poisson(l) = Poisson(l/2) + Poisson(l/2) would recurse
  // deeply; instead use the classic Gamma-split: with m = floor(7/8 * l),
  // draw g ~ Gamma(m) via the Marsaglia-Tsang method and recurse on the
  // remainder. To keep the implementation compact and exact we instead use
  // the binomial split: Poisson(l) conditioned on Poisson(2l) is binomial —
  // but the simplest exact route with the tools at hand is the normal-free
  // "chunked inversion": sum independent Poisson(25) chunks plus one
  // remainder chunk, each sampled by inversion (exp(-25) ~ 1.4e-11 is well
  // within double range).
  std::uint64_t total = 0;
  double remaining = lambda;
  while (remaining > 30.0) {
    total += sample_poisson(rng, 25.0);
    remaining -= 25.0;
  }
  return total + sample_poisson(rng, remaining);
}

}  // namespace ucr
