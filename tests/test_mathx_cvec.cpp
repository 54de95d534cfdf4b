#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "mathx/constants.hpp"
#include "mathx/cvec.hpp"
#include "mathx/unwrap.hpp"

namespace chronos::mathx {
namespace {

TEST(Cvec, Norms) {
  cvec v = {{3.0, 4.0}, {0.0, 0.0}};
  EXPECT_NEAR(norm2_sq(v), 25.0, 1e-12);
  EXPECT_NEAR(norm2(v), 5.0, 1e-12);
}

// --- unwrap ---------------------------------------------------------------

std::vector<double> unwrapped(std::span<const double> phases) {
  std::vector<double> out(phases.size());
  unwrap(phases, out);
  return out;
}

TEST(Unwrap, PassesThroughSmoothSequence) {
  std::vector<double> phases = {0.0, 0.5, 1.0, 1.4};
  const auto u = unwrapped(phases);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_NEAR(u[i], phases[i], 1e-12);
  }
}

TEST(Unwrap, RecoversLinearRamp) {
  // A steep phase ramp wrapped into (-pi, pi] must unwrap back to a line.
  const double slope = 2.1;  // rad per step > tolerance when wrapped
  std::vector<double> wrapped;
  for (int i = 0; i < 40; ++i) {
    wrapped.push_back(wrap_to_pi(-slope * i));
  }
  const auto u = unwrapped(wrapped);
  for (int i = 0; i < 40; ++i) {
    EXPECT_NEAR(u[i], -slope * i, 1e-9) << "at " << i;
  }
}

TEST(Unwrap, HandlesMultipleWrapJumps) {
  // Jump of nearly 4*pi between consecutive samples.
  std::vector<double> phases = {0.0, wrap_to_pi(3.9 * kPi)};
  const auto u = unwrapped(phases);
  EXPECT_NEAR(std::fmod(u[1] - phases[1], kTwoPi), 0.0, 1e-9);
  EXPECT_LT(std::abs(u[1] - u[0]), kPi);
}

TEST(Unwrap, WrapToPiRange) {
  for (double x : {-10.0, -3.2, 0.0, 3.2, 10.0, 100.0}) {
    const double w = wrap_to_pi(x);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    EXPECT_NEAR(std::remainder(w - x, kTwoPi), 0.0, 1e-9);
  }
}

TEST(Unwrap, WrapToPeriod) {
  EXPECT_NEAR(wrap_to_period(5.5, 2.0), 1.5, 1e-12);
  EXPECT_NEAR(wrap_to_period(-0.5, 2.0), 1.5, 1e-12);
  EXPECT_NEAR(wrap_to_period(4.0, 2.0), 0.0, 1e-12);
  EXPECT_THROW((void)wrap_to_period(1.0, 0.0), std::invalid_argument);
}

class UnwrapSlopeSweep : public ::testing::TestWithParam<double> {};

TEST_P(UnwrapSlopeSweep, RecoversSlopeBelowNyquist) {
  // Any slope magnitude below pi per step unwraps exactly.
  const double slope = GetParam();
  std::vector<double> wrapped;
  for (int i = 0; i < 64; ++i) wrapped.push_back(wrap_to_pi(slope * i));
  const auto u = unwrapped(wrapped);
  const double est_slope = (u.back() - u.front()) / 63.0;
  EXPECT_NEAR(est_slope, slope, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Slopes, UnwrapSlopeSweep,
                         ::testing::Values(-3.0, -1.7, -0.4, 0.0, 0.4, 1.7,
                                           2.9));

}  // namespace
}  // namespace chronos::mathx
