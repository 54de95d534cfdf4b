#include <gtest/gtest.h>

#include <cmath>
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
}

}  // namespace
}  // namespace chronos::mathx
