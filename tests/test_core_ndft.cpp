#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>

#include "core/ndft.hpp"
#include "core/profile.hpp"
#include "mathx/constants.hpp"
#include "mathx/cvec.hpp"
#include "mathx/matrix.hpp"
#include "phy/band_plan.hpp"

namespace chronos::core {
namespace {

using mathx::kTwoPi;

std::vector<double> plan_frequencies() {
  std::vector<double> f;
  for (const auto& b : phy::us_band_plan()) f.push_back(b.center_freq_hz);
  return f;
}

std::vector<std::complex<double>> synth_channel(
    const std::vector<double>& freqs,
    const std::vector<std::pair<double, double>>& paths) {  // (tau, amp)
  std::vector<std::complex<double>> h(freqs.size(), {0.0, 0.0});
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    for (const auto& [tau, amp] : paths) {
      h[i] += amp * std::polar(1.0, -kTwoPi * freqs[i] * tau);
    }
  }
  return h;
}

/// F as a dense complex matrix, entry by entry from NdftPlan::at.
mathx::ComplexMatrix dense(const NdftPlan& plan) {
  mathx::ComplexMatrix f(plan.rows(), plan.cols());
  for (std::size_t r = 0; r < plan.rows(); ++r) {
    for (std::size_t c = 0; c < plan.cols(); ++c) f(r, c) = plan.at(r, c);
  }
  return f;
}

TEST(DelayGrid, SizeAndIndexing) {
  DelayGrid g{0.0, 10e-9, 1e-9};
  EXPECT_EQ(g.size(), 11u);
  EXPECT_DOUBLE_EQ(g.delay_at(0), 0.0);
  EXPECT_DOUBLE_EQ(g.delay_at(10), 10e-9);
  DelayGrid bad{1.0, 0.0, 1e-9};
  EXPECT_THROW((void)bad.size(), std::invalid_argument);
}

TEST(Ndft, MatrixEntriesAreUnitPhasors) {
  const DelayGrid grid{0.0, 50e-9, 0.5e-9};
  NdftSolver solver(plan_frequencies(), grid);
  const NdftPlan& f = solver.plan();
  EXPECT_EQ(f.rows(), 35u);
  EXPECT_EQ(f.cols(), grid.size());
  for (std::size_t i = 0; i < f.rows(); i += 7) {
    for (std::size_t k = 0; k < f.cols(); k += 37) {
      EXPECT_NEAR(std::abs(f.at(i, k)), 1.0, 1e-9);
    }
  }
  // Entry phase matches e^{-j2pi f tau} including the recurrence tail.
  const double freq = plan_frequencies()[10];
  const double tau = grid.delay_at(90);
  const std::complex<double> expect = std::polar(1.0, -kTwoPi * freq * tau);
  EXPECT_NEAR(std::abs(f.at(10, 90) - expect), 0.0, 1e-7);
}

/// The power iteration gamma is specified by, on the dense matrix: 30
/// rounds of x <- F^H F x / ||F^H F x|| from a Gaussian start (seed
/// 0x9E3779B97F4A7C15 on mt19937_64, real then imaginary part per column),
/// sigma = ||F x|| after each; 0 once F^H F x vanishes.
double reference_sigma(const mathx::ComplexMatrix& f) {
  std::mt19937_64 rng(0x9E3779B97F4A7C15ull);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<std::complex<double>> x(f.cols());
  for (auto& v : x) v = {gauss(rng), gauss(rng)};
  double sigma = 0.0;
  for (int it = 0; it < 30; ++it) {
    auto ffx = f.multiply_adjoint(f.multiply(x));
    const double norm = mathx::norm2(ffx);
    if (norm == 0.0) return 0.0;
    for (auto& v : ffx) v /= norm;
    x = std::move(ffx);
    sigma = mathx::norm2(f.multiply(x));
  }
  return sigma;
}

TEST(Ndft, GammaIsInverseSquaredSpectralNorm) {
  // The test grid, and the production grid with uneven row weights.
  std::vector<double> weights(plan_frequencies().size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.4 + 0.05 * static_cast<double>(i);
  }
  for (const auto& [grid, w] :
       {std::pair{DelayGrid{0.0, 20e-9, 0.5e-9}, std::vector<double>{}},
        std::pair{DelayGrid{0.0, 150e-9, 0.125e-9}, weights}}) {
    NdftSolver solver(plan_frequencies(), grid, w);
    const double sigma = reference_sigma(dense(solver.plan()));
    ASSERT_GT(sigma, 0.0);
    // gamma = 1/sigma^2 bit for bit: the kernels' power iteration is the
    // dense one.
    EXPECT_EQ(solver.plan().gamma(), 1.0 / (sigma * sigma));
  }
}

TEST(Ndft, GammaOfAOneRowPlanIsItsInverseSquaredNorm) {
  // One row of weight w over m columns is rank one: ||F||_2^2 = w^2 m, which
  // the first power iteration already reaches.
  const double w = 0.37;
  const NdftPlan plan({5.2e9}, DelayGrid{0.0, 150e-9, 0.125e-9}, {w});
  const auto m = static_cast<double>(plan.cols());
  EXPECT_NEAR(plan.gamma() * w * w * m, 1.0, 1e-12);
}

enum class SolverKind { kIsta, kFista, kOmp };

class SparseSolverKindCase : public ::testing::TestWithParam<SolverKind> {};

TEST_P(SparseSolverKindCase, RecoversSinglePath) {
  const DelayGrid grid{0.0, 60e-9, 0.25e-9};
  NdftSolver solver(plan_frequencies(), grid);
  const double tau = 17e-9;  // on-grid (68 * 0.25 ns)
  const auto h = synth_channel(plan_frequencies(), {{tau, 1.0}});

  SparseSolveResult sol;
  switch (GetParam()) {
    case SolverKind::kIsta:
      sol = solver.solve_ista(h);
      break;
    case SolverKind::kFista:
      sol = solver.solve_fista(h);
      break;
    case SolverKind::kOmp:
      sol = solver.solve_omp(h, 3);
      break;
  }
  const auto profile = extract_profile(sol);
  ASSERT_FALSE(profile.peaks.empty());
  const auto fp = first_peak(profile, 0.3);
  ASSERT_TRUE(fp.has_value());
  EXPECT_NEAR(fp->delay_s, tau, 0.3e-9);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SparseSolverKindCase,
                         ::testing::Values(SolverKind::kIsta,
                                           SolverKind::kFista,
                                           SolverKind::kOmp));

TEST(Ndft, FistaResolvesThreePathsOfFig4) {
  // Paper Fig 4: paths at 5.2, 10, 16 ns. Every true path must appear as a
  // dominant peak in the recovered profile (sidelobe clusters may also
  // survive at low amplitude, so membership — not indexing — is checked).
  const DelayGrid grid{0.0, 60e-9, 0.25e-9};
  NdftSolver solver(plan_frequencies(), grid);
  const auto h = synth_channel(plan_frequencies(),
                               {{5.2e-9, 1.0}, {10e-9, 0.65}, {16e-9, 0.5}});
  const auto sol = solver.solve_fista(h);
  const auto profile = extract_profile(sol);
  ASSERT_GE(profile.peaks.size(), 3u);
  double max_amp = 0.0;
  for (const auto& p : profile.peaks) max_amp = std::max(max_amp, p.amplitude);
  for (const double truth : {5.2e-9, 10e-9, 16e-9}) {
    bool found = false;
    for (const auto& p : profile.peaks) {
      if (p.amplitude >= 0.25 * max_amp &&
          std::abs(p.delay_s - truth) < 0.5e-9) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "missing path at " << truth * 1e9 << " ns";
  }
}

TEST(Ndft, SynthesizeIsConsistentWithSolution) {
  const DelayGrid grid{0.0, 40e-9, 0.25e-9};
  NdftSolver solver(plan_frequencies(), grid);
  const auto h = synth_channel(plan_frequencies(), {{12e-9, 1.0}});
  const auto sol = solver.solve_fista(h);
  const auto recon = solver.synthesize(sol.coefficients);
  double err = 0.0;
  for (std::size_t i = 0; i < h.size(); ++i) err += std::norm(recon[i] - h[i]);
  // The residual reported must match the reconstruction error.
  EXPECT_NEAR(std::sqrt(err), sol.residual_norm, 1e-9);
  EXPECT_LT(sol.residual_norm, 0.5 * mathx::norm2(h));
}

TEST(Ndft, MatchedFilterPeaksAtTrueDelay) {
  const DelayGrid grid{0.0, 40e-9, 0.25e-9};
  NdftSolver solver(plan_frequencies(), grid);
  const double tau = 21.3e-9;  // off-grid on purpose
  const auto h = synth_channel(plan_frequencies(), {{tau, 1.0}});
  EXPECT_NEAR(solver.plan().matched_filter(h, tau), 35.0, 1e-6);
  // The band plan is bimodal (2.4 / 5.5 GHz clusters), so the mainlobe has
  // a beat structure; 0.3 ns off still loses coherence vs the peak.
  EXPECT_LT(solver.plan().matched_filter(h, tau + 0.3e-9), 34.0);
  EXPECT_LT(solver.plan().matched_filter(h, tau + 1.2e-9), 25.0);
}

TEST(Ndft, RefineDelayRecoversOffGridTau) {
  const DelayGrid grid{0.0, 40e-9, 0.25e-9};
  NdftSolver solver(plan_frequencies(), grid);
  const double tau = 21.317e-9;
  const auto h = synth_channel(plan_frequencies(), {{tau, 1.0}});
  const double refined = solver.refine_delay(h, 21.25e-9, 0.3e-9);
  EXPECT_NEAR(refined, tau, 1e-12);
}

TEST(Ndft, RowWeightsScaleRowsAndMeasurements) {
  std::vector<double> freqs = {2.4e9, 5.2e9};
  std::vector<double> weights = {0.5, 2.0};
  const DelayGrid grid{0.0, 10e-9, 1e-9};
  NdftSolver solver(freqs, grid, weights);
  EXPECT_NEAR(std::abs(solver.plan().at(0, 3)), 0.5, 1e-9);
  EXPECT_NEAR(std::abs(solver.plan().at(1, 3)), 2.0, 1e-9);
  std::vector<std::complex<double>> h = {{1.0, 0.0}, {1.0, 0.0}};
  const auto hw = solver.apply_weights(h);
  EXPECT_NEAR(std::abs(hw[0]), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(hw[1]), 2.0, 1e-12);
}

TEST(Ndft, BadInputsThrow) {
  const DelayGrid grid{0.0, 10e-9, 1e-9};
  EXPECT_THROW(NdftSolver({}, grid), std::invalid_argument);
  EXPECT_THROW(NdftSolver({2.4e9}, grid, {1.0, 2.0}), std::invalid_argument);
  NdftSolver solver({2.4e9, 5.2e9}, grid);
  std::vector<std::complex<double>> wrong_size = {{1.0, 0.0}};
  EXPECT_THROW((void)solver.solve_fista(wrong_size), std::invalid_argument);
  std::vector<std::complex<double>> ok = {{1.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW((void)solver.solve_omp(ok, 0), std::invalid_argument);
}

TEST(Ndft, IstaAndFistaAgreeOnSparseProblem) {
  const DelayGrid grid{0.0, 40e-9, 0.5e-9};
  NdftSolver solver(plan_frequencies(), grid);
  const auto h = synth_channel(plan_frequencies(), {{8e-9, 1.0}, {20e-9, 0.5}});
  const auto a = solver.solve_ista(h);
  const auto b = solver.solve_fista(h);
  const auto pa = extract_profile(a);
  const auto pb = extract_profile(b);
  ASSERT_FALSE(pa.peaks.empty());
  ASSERT_FALSE(pb.peaks.empty());
  EXPECT_NEAR(pa.peaks[0].delay_s, pb.peaks[0].delay_s, 0.5e-9);
  // FISTA converges in (usually far) fewer iterations.
  EXPECT_LE(b.iterations, a.iterations);
}

TEST(Ndft, HigherAlphaGivesSparserSolution) {
  const DelayGrid grid{0.0, 40e-9, 0.5e-9};
  NdftSolver solver(plan_frequencies(), grid);
  const auto h = synth_channel(plan_frequencies(),
                               {{8e-9, 1.0}, {14e-9, 0.6}, {22e-9, 0.3}});
  IstaOptions lo, hi;
  lo.alpha = 0.05;
  hi.alpha = 0.5;
  auto count_nonzero = [](const SparseSolveResult& s) {
    std::size_t n = 0;
    for (const auto& v : s.coefficients) {
      if (std::abs(v) > 1e-12) ++n;
    }
    return n;
  };
  EXPECT_GT(count_nonzero(solver.solve_fista(h, lo)),
            count_nonzero(solver.solve_fista(h, hi)));
}

}  // namespace
}  // namespace chronos::core
