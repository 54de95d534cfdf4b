#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "baseline/pseudo_inverse.hpp"
#include "core/profile.hpp"
#include "mathx/constants.hpp"
#include "phy/band_plan.hpp"

namespace chronos::baseline {
namespace {

using mathx::kTwoPi;

std::vector<double> plan_freqs() {
  std::vector<double> f;
  for (const auto& b : phy::us_band_plan()) f.push_back(b.center_freq_hz);
  return f;
}

TEST(PseudoInverse, AdjointPeaksAtTrueDelayButSmears) {
  const core::DelayGrid grid{0.0, 60e-9, 0.25e-9};
  core::NdftSolver solver(plan_freqs(), grid);
  const double tau = 14e-9;
  std::vector<std::complex<double>> h;
  for (double f : plan_freqs()) h.push_back(std::polar(1.0, -kTwoPi * f * tau));

  const auto adj = solve_adjoint(solver, h);
  const auto prof = core::extract_profile(adj);
  // Peak is at the right place...
  const auto fp = core::first_peak(prof, 0.5);
  ASSERT_TRUE(fp.has_value());
  EXPECT_NEAR(fp->delay_s, tau, 0.5e-9);
  // ...but the profile is far less sparse than the L1 solution.
  const auto sparse = solver.solve_fista(h);
  const auto sparse_prof = core::extract_profile(sparse);
  EXPECT_GT(prof.peaks.size(), sparse_prof.peaks.size());
}

TEST(PseudoInverse, MinNormReconstructsMeasurements) {
  const core::DelayGrid grid{0.0, 40e-9, 0.5e-9};
  core::NdftSolver solver(plan_freqs(), grid);
  const double tau = 9e-9;
  std::vector<std::complex<double>> h;
  for (double f : plan_freqs()) h.push_back(std::polar(1.0, -kTwoPi * f * tau));
  const auto sol = solve_min_norm(solver, h);
  // Min-norm solution is data-consistent up to the Tikhonov regulariser.
  EXPECT_LT(sol.residual_norm, 1e-3);
}

}  // namespace
}  // namespace chronos::baseline
