#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <iterator>
#include <random>
#include <span>
#include <vector>

#include "mathx/rng.hpp"
#include "mathx/stats.hpp"

namespace chronos::mathx {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1000) == b.uniform_int(0, 1000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkedStreamsAreIndependentOfParentDrawCount) {
  Rng parent1(7);
  Rng parent2(7);
  auto childA = parent1.fork(1);
  auto childB = parent2.fork(1);
  // Same parent state, same tag -> identical child streams.
  EXPECT_EQ(childA.uniform(0.0, 1.0), childB.uniform(0.0, 1.0));
  // Different tags -> different streams.
  Rng parent3(7);
  auto childC = parent3.fork(2);
  EXPECT_NE(childA.uniform(0.0, 1.0), childC.uniform(0.0, 1.0));
}

TEST(Rng, SplitIsIndependentOfParentDrawPosition) {
  // The batched-runtime contract: split(id) depends only on the seed, so a
  // parent that has produced any number of draws still derives the same
  // child streams — scheduling can never change what a stream contains.
  Rng fresh(99);
  Rng advanced(99);
  for (int i = 0; i < 1000; ++i) (void)advanced.uniform(0.0, 1.0);
  auto a = fresh.split(17);
  auto b = advanced.split(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng with_split(7);
  Rng without(7);
  (void)with_split.split(0);
  (void)with_split.split(1);
  EXPECT_EQ(with_split.uniform(0.0, 1.0), without.uniform(0.0, 1.0));
}

TEST(Rng, SplitStreamsDecorrelate) {
  Rng parent(3);
  auto a = parent.split(0);
  auto b = parent.split(1);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1000) == b.uniform_int(0, 1000)) ++same;
  }
  EXPECT_LT(same, 5);
  // Child id 0 is not the parent's own stream either.
  auto c = parent.split(0);
  Rng parent_copy(3);
  EXPECT_NE(c.uniform(0.0, 1.0), parent_copy.uniform(0.0, 1.0));
}

TEST(Rng, SplitSurvivesCopies) {
  // A copied Rng keeps the construction seed, so splits taken through the
  // copy agree with splits taken through the original.
  Rng original(21);
  Rng copy = original;
  (void)copy.uniform(0.0, 1.0);
  auto a = original.split(4);
  auto b = copy.split(4);
  EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  EXPECT_EQ(original.seed(), 21u);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMatchesMoments) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.normal(5.0, 2.0));
  EXPECT_NEAR(mean(samples), 5.0, 0.1);
  EXPECT_NEAR(stddev(samples), 2.0, 0.1);
}

TEST(Rng, NormalZeroSigmaIsDeterministic) {
  Rng rng(1);
  EXPECT_EQ(rng.normal(3.0, 0.0), 3.0);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW((void)rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, ComplexGaussianIsCircular) {
  Rng rng(21);
  double re = 0.0, im = 0.0, re2 = 0.0, im2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto z = rng.complex_gaussian(1.5);
    re += z.real();
    im += z.imag();
    re2 += z.real() * z.real();
    im2 += z.imag() * z.imag();
  }
  EXPECT_NEAR(re / n, 0.0, 0.05);
  EXPECT_NEAR(im / n, 0.0, 0.05);
  EXPECT_NEAR(re2 / n, 2.25, 0.1);
  EXPECT_NEAR(im2 / n, 2.25, 0.1);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::complex<double> a, std::complex<double> b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

TEST(Rng, GaussianDrawsMatchTheLibraryDistributionBitwise) {
  // Rng's inline polar method must keep std::normal_distribution's bits:
  // every synthesized noise sample, and so every golden, rests on them.
  constexpr int kDraws = 100000;
  constexpr double kSigma = 0.37;
  std::mt19937_64 engine(4242);
  Rng single(4242);
  std::vector<std::complex<double>> want(kDraws);
  int mismatches = 0;
  for (auto& w : want) {
    std::normal_distribution<double> d(0.0, kSigma);
    const double re = d(engine);
    w = {re, d(engine)};
    mismatches += !same_bits(single.complex_gaussian(kSigma), w);
  }
  EXPECT_EQ(mismatches, 0) << "complex_gaussian against the library";
  EXPECT_EQ(single.engine()(), engine()) << "engines fell out of step";

  // The span draw against the single draw, over spans that fill less than,
  // exactly and more than one block, an empty span, and an exchange's 60.
  Rng batched(4242);
  const std::size_t sizes[] = {1, 60, 0, 64, 65, 200, 7, 129};
  std::vector<std::complex<double>> got(kDraws);
  std::size_t at = 0;
  for (std::size_t i = 0; at < got.size(); ++i) {
    const std::size_t len =
        std::min(sizes[i % std::size(sizes)], got.size() - at);
    batched.complex_gaussians(kSigma, std::span(got).subspan(at, len));
    at += len;
  }
  mismatches = 0;
  for (std::size_t k = 0; k < got.size(); ++k) {
    mismatches += !same_bits(got[k], want[k]);
  }
  EXPECT_EQ(mismatches, 0) << "complex_gaussians against complex_gaussian";
  Rng check(4242);
  for (int k = 0; k < kDraws; ++k) (void)check.complex_gaussian(kSigma);
  EXPECT_EQ(batched.engine()(), check.engine()());

  // normal() is the distribution's first value, at any mean and stddev.
  std::mt19937_64 normal_engine(77);
  Rng normal_rng(77);
  mismatches = 0;
  for (int k = 0; k < kDraws; ++k) {
    const double mean = k % 3 == 0 ? 0.0 : -1.5;
    const double stddev = k % 2 == 0 ? 2.0e-9 : 0.8;
    std::normal_distribution<double> d(mean, stddev);
    mismatches += !same_bits(normal_rng.normal(mean, stddev), d(normal_engine));
  }
  EXPECT_EQ(mismatches, 0) << "normal against the library";

  // A zero stddev draws nothing and yields exact zeros.
  Rng zero(5);
  std::vector<std::complex<double>> zeros(3, {1.0, 1.0});
  zero.complex_gaussians(0.0, zeros);
  for (const auto& z : zeros) EXPECT_EQ(z, (std::complex<double>{0.0, 0.0}));
  EXPECT_EQ(zero.engine()(), Rng(5).engine()());
}

TEST(Rng, UniformPhaseRange) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double p = rng.uniform_phase();
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 6.2831853072);
  }
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.normal(0.0, -1.0), std::invalid_argument);
  std::vector<std::complex<double>> out(2);
  EXPECT_THROW(rng.complex_gaussians(-1.0, out), std::invalid_argument);
}

}  // namespace
}  // namespace chronos::mathx
