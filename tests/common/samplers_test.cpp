#include "common/samplers.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "common/stats.hpp"

namespace ucr {
namespace {

double binomial_pmf(std::uint64_t n, double p, std::uint64_t k) {
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  return std::exp(std::lgamma(nd + 1) - std::lgamma(kd + 1) -
                  std::lgamma(nd - kd + 1) + kd * std::log(p) +
                  (nd - kd) * std::log1p(-p));
}

// --------------------------------------------------------- slot categories

TEST(SlotCategory, ZeroStationsIsSilence) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_slot_category(rng, 0, 0.5), SlotCategory::kSilence);
  }
}

TEST(SlotCategory, ZeroProbabilityIsSilence) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_slot_category(rng, 1000, 0.0), SlotCategory::kSilence);
  }
}

TEST(SlotCategory, OneStationFullProbabilityIsSuccess) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_slot_category(rng, 1, 1.0), SlotCategory::kSuccess);
  }
}

TEST(SlotCategory, ManyStationsFullProbabilityIsCollision) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_slot_category(rng, 2, 1.0), SlotCategory::kCollision);
  }
}

TEST(SlotCategory, RejectsInvalidProbability) {
  Xoshiro256 rng(5);
  EXPECT_THROW(sample_slot_category(rng, 10, -0.1), ContractViolation);
  EXPECT_THROW(sample_slot_category(rng, 10, 1.1), ContractViolation);
}

TEST(SlotCategory, FrequenciesMatchClosedForm) {
  // m = 50, p = 1/50: P0 = (1-p)^m, P1 = m p (1-p)^{m-1}.
  Xoshiro256 rng(6);
  const std::uint64_t m = 50;
  const double p = 1.0 / 50.0;
  const int n = 300000;
  int c0 = 0, c1 = 0, c2 = 0;
  for (int i = 0; i < n; ++i) {
    switch (sample_slot_category(rng, m, p)) {
      case SlotCategory::kSilence: ++c0; break;
      case SlotCategory::kSuccess: ++c1; break;
      case SlotCategory::kCollision: ++c2; break;
    }
  }
  EXPECT_NEAR(static_cast<double>(c0) / n, prob_silence(m, p), 0.005);
  EXPECT_NEAR(static_cast<double>(c1) / n, prob_success(m, p), 0.005);
  EXPECT_NEAR(static_cast<double>(c2) / n,
              1.0 - prob_silence(m, p) - prob_success(m, p), 0.005);
}

TEST(SlotCategory, SuccessProbabilityPeaksNearOneOverM) {
  // Sanity on the physics: p = 1/m maximizes the success frequency.
  Xoshiro256 rng(7);
  const std::uint64_t m = 100;
  auto success_rate = [&](double p) {
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      if (sample_slot_category(rng, m, p) == SlotCategory::kSuccess) ++hits;
    }
    return static_cast<double>(hits) / n;
  };
  const double at_opt = success_rate(1.0 / 100.0);
  EXPECT_GT(at_opt, success_rate(1.0 / 10.0));
  EXPECT_GT(at_opt, success_rate(1.0 / 1000.0));
  EXPECT_NEAR(at_opt, 1.0 / std::exp(1.0), 0.01);
}

TEST(Samplers, SlotLawCacheMatchesClosedForms) {
  // A key sequence that walks every cache path: repeats, A/B alternation
  // (the AT/BT interleaving), the same p with a new m, evictions, and the
  // special and extreme probabilities.
  const double a = 1.0 / 3.0;
  const double b = 0.125;
  const std::vector<std::pair<std::uint64_t, double>> keys = {
      {10, a},          {10, a},      {10, b},      {10, a},
      {10, b},          {9, b},       {9, a},       {9, b},
      {8, 0.5},         {9, a},       {1000, 0.0},  {0, 0.5},
      {1, 1.0},         {1, 1.0},     {2, 1.0},     {7, 1.0},
      {1, 0.25},        {1, 1e-300},  {1000000, 1e-300},
      {1, 1.0 - 0x1p-53}, {3, 1.0 - 0x1p-53},     {3, 1.0 - 0x1p-53},
      {1000000, 1e-6},  {999999, 1e-6}, {1000000, 1e-6}};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  SlotLawCache values;   // asked for P0 and P1 directly
  SlotLawCache sampler;  // only samples: P1 stays lazy until a draw needs it
  Xoshiro256 cached(99);
  Xoshiro256 fresh(99);
  std::uint64_t draws = 0;
  for (const auto& [m, p] : keys) {
    EXPECT_EQ(bits(values.silence(m, p)), bits(prob_silence(m, p)))
        << "m=" << m << " p=" << p;
    EXPECT_EQ(bits(values.success(m, p)), bits(prob_success(m, p)))
        << "m=" << m << " p=" << p;
    for (int i = 0; i < 3; ++i, ++draws) {
      EXPECT_EQ(sampler.sample(cached, m, p),
                sample_slot_category(fresh, m, p))
          << "m=" << m << " p=" << p << " draw " << draws;
    }
  }
  // Same draws consumed: both generators are in the same state.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cached.next_u64(), fresh.next_u64());
  EXPECT_THROW(sampler.sample(cached, 10, -0.1), ContractViolation);
  EXPECT_THROW(values.success(10, 1.5), ContractViolation);
}

// --------------------------------------------------------------- binomial

TEST(Binomial, EdgeCases) {
  Xoshiro256 rng(10);
  EXPECT_EQ(sample_binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 1.0), 100u);
  EXPECT_THROW(sample_binomial(rng, 10, -0.1), ContractViolation);
  EXPECT_THROW(sample_binomial(rng, 10, 2.0), ContractViolation);
}

TEST(Binomial, AlwaysWithinRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LE(sample_binomial(rng, 20, 0.3), 20u);
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_LE(sample_binomial(rng, 1000000, 0.4), 1000000u);
  }
}

struct MomentCase {
  std::uint64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<MomentCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Xoshiro256 rng(1000 + n);
  RunningStats stats;
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) {
    stats.add(static_cast<double>(sample_binomial(rng, n, p)));
  }
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1.0 - p);
  // 5-sigma tolerance on the sample mean; generous band on the variance.
  const double mean_tol = 5.0 * std::sqrt(var / trials) + 1e-9;
  EXPECT_NEAR(stats.mean(), mean, mean_tol);
  EXPECT_NEAR(stats.variance(), var, 0.08 * var + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    SweepNAndP, BinomialMoments,
    ::testing::Values(MomentCase{1, 0.5}, MomentCase{2, 0.1},
                      MomentCase{10, 0.05}, MomentCase{100, 0.02},
                      MomentCase{100, 0.5}, MomentCase{1000, 0.001},
                      MomentCase{1000, 0.3}, MomentCase{100000, 0.0001},
                      MomentCase{100000, 0.25}, MomentCase{1000000, 0.5},
                      MomentCase{1000000, 0.9},  // mirrored path (p > 1/2)
                      MomentCase{10000000, 0.3}));

TEST(Binomial, ChiSquareAgainstExactPmfSmallN) {
  // n = 8, p = 0.35: compare the full distribution against the exact pmf.
  Xoshiro256 rng(12);
  const std::uint64_t n = 8;
  const double p = 0.35;
  const int trials = 200000;
  std::vector<double> observed(n + 1, 0.0);
  for (int i = 0; i < trials; ++i) {
    ++observed[sample_binomial(rng, n, p)];
  }
  std::vector<double> expected(n + 1, 0.0);
  for (std::uint64_t k = 0; k <= n; ++k) {
    expected[k] = binomial_pmf(n, p, k) * trials;
  }
  // 8 degrees of freedom; chi2_{0.999} ~ 26.1. Fixed seed, so no flake.
  EXPECT_LT(chi_square_statistic(observed, expected), 26.1);
}

TEST(Binomial, BtrsMatchesInversionDistribution) {
  // Same (n, p) sampled through both internal paths must agree in
  // distribution: compare means and a few quantile-ish counts.
  const std::uint64_t n = 400;
  const double p = 0.05;  // np = 20: BTRS-eligible but inversion-safe
  Xoshiro256 rng_a(13);
  Xoshiro256 rng_b(14);
  RunningStats a, b;
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) {
    a.add(static_cast<double>(detail::binomial_inversion(rng_a, n, p)));
    b.add(static_cast<double>(detail::binomial_btrs(rng_b, n, p)));
  }
  EXPECT_NEAR(a.mean(), b.mean(), 0.12);
  EXPECT_NEAR(a.variance(), b.variance(), 0.08 * a.variance() + 0.3);
}

TEST(Binomial, BtrsPreconditions) {
  Xoshiro256 rng(15);
  EXPECT_THROW(detail::binomial_btrs(rng, 10, 0.6), ContractViolation);
  EXPECT_THROW(detail::binomial_btrs(rng, 10, 0.1), ContractViolation);
}

// --------------------------------------------------------------- geometric

TEST(Geometric, EdgeCases) {
  Xoshiro256 rng(30);
  EXPECT_EQ(sample_geometric_failures(rng, 1.0, 100), 0u);
  EXPECT_EQ(sample_geometric_failures(rng, 0.0, 100), 100u);
  EXPECT_EQ(sample_geometric_failures(rng, 0.5, 0), 0u);
  EXPECT_THROW(sample_geometric_failures(rng, -0.1, 10), ContractViolation);
  EXPECT_THROW(sample_geometric_failures(rng, 1.1, 10), ContractViolation);
}

TEST(Geometric, NeverExceedsLimit) {
  Xoshiro256 rng(31);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LE(sample_geometric_failures(rng, 1e-6, 37), 37u);
  }
}

class GeometricMoments : public ::testing::TestWithParam<double> {};

TEST_P(GeometricMoments, UntruncatedMeanMatches) {
  // With the limit far beyond any realistic draw, the mean must match the
  // geometric failure count (1-p)/p.
  const double p = GetParam();
  Xoshiro256 rng(32);
  RunningStats stats;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    stats.add(static_cast<double>(
        sample_geometric_failures(rng, p, ~std::uint64_t{0})));
  }
  const double mean = (1.0 - p) / p;
  const double sd = std::sqrt(1.0 - p) / p;
  EXPECT_NEAR(stats.mean(), mean, 5.0 * sd / std::sqrt(double(trials)));
}

INSTANTIATE_TEST_SUITE_P(SweepP, GeometricMoments,
                         ::testing::Values(0.9, 0.5, 0.1, 0.01, 1e-4));

TEST(Geometric, TruncatedTailMassMatches) {
  // P[draw == limit] = P[Geometric(p) >= limit] = (1-p)^limit.
  const double p = 0.05;
  const std::uint64_t limit = 20;
  Xoshiro256 rng(33);
  const int trials = 200000;
  int at_limit = 0;
  for (int i = 0; i < trials; ++i) {
    if (sample_geometric_failures(rng, p, limit) == limit) ++at_limit;
  }
  const double expected = std::pow(1.0 - p, double(limit));
  EXPECT_NEAR(double(at_limit) / trials, expected,
              5.0 * std::sqrt(expected / trials));
}

// ---------------------------------------------------------------- poisson

TEST(Poisson, ZeroRate) {
  Xoshiro256 rng(20);
  EXPECT_EQ(sample_poisson(rng, 0.0), 0u);
  EXPECT_THROW(sample_poisson(rng, -1.0), ContractViolation);
}

class PoissonMoments : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMoments, MeanAndVarianceMatchLambda) {
  const double lambda = GetParam();
  Xoshiro256 rng(21);
  RunningStats stats;
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) {
    stats.add(static_cast<double>(sample_poisson(rng, lambda)));
  }
  const double tol = 5.0 * std::sqrt(lambda / trials) + 1e-9;
  EXPECT_NEAR(stats.mean(), lambda, tol);
  EXPECT_NEAR(stats.variance(), lambda, 0.08 * lambda + 0.02);
}

INSTANTIATE_TEST_SUITE_P(SweepLambda, PoissonMoments,
                         ::testing::Values(0.1, 1.0, 5.0, 29.0, 31.0, 100.0,
                                           1000.0));

// --------------------------------------------------- bulk bounded uniforms

using BulkRngTypes = ::testing::Types<Xoshiro256, CounterRng>;

template <typename Rng>
class FillUniformBelow : public ::testing::Test {};
TYPED_TEST_SUITE(FillUniformBelow, BulkRngTypes);

TYPED_TEST(FillUniformBelow, MatchesSequentialNextBelow) {
  // The contract the batched fair engine's byte-pinned outputs rest on:
  // fill_uniform_below consumes the generator's u64 stream exactly as n
  // sequential next_below calls would — same outputs, same state advance.
  // bound = 2^63 + 1 forces Lemire rejections on ~half the draws, so the
  // retry path (buffered values, then the drained-buffer fallback) is
  // exercised hard; the small bounds cover the common rejection-free case
  // and sizes around the internal chunk boundary.
  for (std::uint64_t bound : {2ULL, 3ULL, 1000ULL, (1ULL << 63) + 1ULL}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{2048},
                          std::size_t{2049}, std::size_t{5000}}) {
      TypeParam bulk(424242);
      TypeParam sequential(424242);
      std::vector<std::uint64_t> out(n);
      fill_uniform_below(bulk, bound, out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], sequential.next_below(bound))
            << "bound=" << bound << " n=" << n << " i=" << i;
      }
      // Same state advance: the next unbounded draws still agree.
      ASSERT_EQ(bulk.next_u64(), sequential.next_u64())
          << "bound=" << bound << " n=" << n;
    }
  }
}

TYPED_TEST(FillUniformBelow, RejectsZeroBound) {
  TypeParam rng(1);
  std::uint64_t out[1];
  EXPECT_THROW(fill_uniform_below(rng, 0, out, 1), ContractViolation);
}

}  // namespace
}  // namespace ucr
