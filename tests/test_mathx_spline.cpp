#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mathx/spline.hpp"

namespace chronos::mathx {
namespace {

TEST(Spline, InterpolatesKnotsExactly) {
  const std::vector<double> x = {0.0, 1.0, 2.5, 4.0};
  const std::vector<double> y = {1.0, -2.0, 0.5, 3.0};
  const CubicSpline s(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(s(x[i]), y[i], 1e-12);
  }
}

TEST(Spline, TwoKnotsDegradesToLinear) {
  const std::vector<double> x = {0.0, 2.0};
  const std::vector<double> y = {1.0, 5.0};
  const CubicSpline s(x, y);
  EXPECT_NEAR(s(1.0), 3.0, 1e-12);
  EXPECT_NEAR(s(0.5), 2.0, 1e-12);
}

TEST(Spline, ReproducesLinearFunctionEverywhere) {
  std::vector<double> x, y;
  for (int i = 0; i <= 10; ++i) {
    x.push_back(i * 0.7);
    y.push_back(3.0 * x.back() - 2.0);
  }
  const CubicSpline s(x, y);
  for (double q = 0.1; q < 6.9; q += 0.37) {
    EXPECT_NEAR(s(q), 3.0 * q - 2.0, 1e-10);
  }
}

TEST(Spline, ApproximatesSmoothFunction) {
  // Dense knots on sin(x): interpolation error must be tiny mid-range.
  std::vector<double> x, y;
  for (int i = 0; i <= 40; ++i) {
    x.push_back(i * 0.1);
    y.push_back(std::sin(x.back()));
  }
  const CubicSpline s(x, y);
  for (double q = 0.5; q < 3.5; q += 0.13) {
    EXPECT_NEAR(s(q), std::sin(q), 1e-5);
  }
}

TEST(Spline, ExtrapolatesBoundaryPolynomial) {
  const std::vector<double> x = {0.0, 1.0, 2.0};
  const std::vector<double> y = {0.0, 1.0, 4.0};
  const CubicSpline s(x, y);
  // Just outside the hull the value continues smoothly, no discontinuity.
  const double inside = s(0.001);
  const double outside = s(-0.001);
  EXPECT_NEAR(inside, outside, 1e-2);
}

TEST(Spline, RejectsBadInput) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(CubicSpline(one, one), std::invalid_argument);
  const std::vector<double> x = {0.0, 0.0, 1.0};
  const std::vector<double> y = {0.0, 1.0, 2.0};
  EXPECT_THROW(CubicSpline(x, y), std::invalid_argument);
  const std::vector<double> x2 = {0.0, 1.0};
  const std::vector<double> y3 = {0.0, 1.0, 2.0};
  EXPECT_THROW(CubicSpline(x2, y3), std::invalid_argument);
}

// The Chronos §5 use case: phase across subcarriers with a linear
// detection-delay term; interpolating at offset 0 must remove it.
class SplinePhaseRecovery : public ::testing::TestWithParam<double> {};

TEST_P(SplinePhaseRecovery, ZeroOffsetPhaseIsDelayFree) {
  const double delta = GetParam();  // detection delay [s]
  const double tau = 20e-9;
  std::vector<double> offsets, phases;
  for (int k = -28; k <= 28; k += 2) {
    if (k == 0) continue;
    const double off = k * 312.5e3;
    offsets.push_back(off);
    // unwrapped phase: -2*pi*(f0+off)*tau - 2*pi*off*delta, dropping the
    // constant f0 part (absorbed elsewhere).
    phases.push_back(-2.0 * 3.14159265358979 * off * (tau + delta));
  }
  const CubicSpline s(offsets, phases);
  EXPECT_NEAR(s(0.0), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(DetectionDelays, SplinePhaseRecovery,
                         ::testing::Values(0.0, 50e-9, 177e-9, 300e-9));

}  // namespace
}  // namespace chronos::mathx
