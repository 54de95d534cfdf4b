#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <vector>

#include "core/crt.hpp"
#include "core/subcarrier_interp.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "mathx/spline.hpp"
#include "mathx/unwrap.hpp"
#include "phy/band_plan.hpp"
#include "sim/link.hpp"
#include "sim/radio.hpp"
#include "sim/scenario.hpp"

// ---- Allocation counter -------------------------------------------------
// Global operator new/delete replacement counting every heap allocation in
// the test binary, as in test_core_ndft_kernels.cpp: the no-allocation test
// compares the count across calls; everything else ignores it.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// The replacement operators pair malloc with free consistently; GCC's
// -Wmismatched-new-delete cannot see that the matching operator new also
// forwards to malloc, so silence its false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace chronos::core {
namespace {

using mathx::kTwoPi;

phy::CsiMeasurement synth_measurement(const phy::WifiBand& band, double tau,
                                      double delta, double noise_sigma,
                                      mathx::Rng* rng) {
  phy::CsiMeasurement m;
  m.band = band;
  const auto idx = phy::intel5300_subcarrier_indices();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const double off = phy::subcarrier_offset_hz(idx[k]);
    const double f = band.center_freq_hz + off;
    std::complex<double> h = std::polar(1.0, -kTwoPi * f * tau);
    h *= std::polar(1.0, -kTwoPi * off * delta);
    if (rng != nullptr) h += rng->complex_gaussian(noise_sigma);
    m.values[k] = h;
  }
  return m;
}

class InterpDelaySweep : public ::testing::TestWithParam<double> {};

TEST_P(InterpDelaySweep, ZeroSubcarrierIsDetectionDelayFree) {
  const double delta = GetParam();
  const double tau = 23e-9;
  const auto band = phy::band_by_channel(100);
  const auto m = synth_measurement(band, tau, delta, 0.0, nullptr);
  const auto r = interpolate_to_center(m);
  const double expect_phase =
      mathx::wrap_to_pi(-kTwoPi * band.center_freq_hz * tau);
  EXPECT_NEAR(mathx::wrap_to_pi(std::arg(r.zero_subcarrier) - expect_phase),
              0.0, 1e-6);
  EXPECT_NEAR(r.toa_slope_s, tau + delta, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Deltas, InterpDelaySweep,
                         ::testing::Values(0.0, 80e-9, 177e-9, 250e-9,
                                           400e-9));

TEST(Interp, MagnitudeIsInterpolatedToo) {
  auto m = synth_measurement(phy::band_by_channel(36), 10e-9, 0.0, 0.0,
                             nullptr);
  for (auto& v : m.values) v *= 2.5;
  const auto r = interpolate_to_center(m);
  EXPECT_NEAR(std::abs(r.zero_subcarrier), 2.5, 1e-6);
}

TEST(Interp, ToleratesModerateNoise) {
  mathx::Rng rng(5);
  const double tau = 30e-9;
  const auto band = phy::band_by_channel(52);
  double max_err = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto m = synth_measurement(band, tau, 180e-9, 0.03, &rng);
    const auto r = interpolate_to_center(m);
    const double expect = mathx::wrap_to_pi(-kTwoPi * band.center_freq_hz * tau);
    max_err = std::max(max_err, std::abs(mathx::wrap_to_pi(
                                    std::arg(r.zero_subcarrier) - expect)));
  }
  EXPECT_LT(max_err, 0.15);
}

// --- zero-subcarrier taps ----------------------------------------------

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// The 30 reported subcarrier offsets: the spline knots.
std::vector<double> subcarrier_offsets() {
  std::vector<double> x;
  for (const int n : phy::intel5300_subcarrier_indices()) {
    x.push_back(phy::subcarrier_offset_hz(n));
  }
  return x;
}

/// w_k = S_k(0), the spline through the unit vector e_k read at offset 0,
/// derived here the way the header documents it.
std::vector<double> zero_offset_taps(const std::vector<double>& x) {
  std::vector<double> w;
  for (std::size_t k = 0; k < x.size(); ++k) {
    std::vector<double> unit(x.size(), 0.0);
    unit[k] = 1.0;
    w.push_back(mathx::CubicSpline(x, unit)(0.0));
  }
  return w;
}

/// sum_k |w_k y_k|: the scale of a weighted sum's rounding error.
double tap_scale(const std::vector<double>& w, std::span<const double> y) {
  double acc = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) acc += std::abs(w[k] * y[k]);
  return acc;
}

/// Rounding allowance, in units of eps * sum_k |w_k y_k|, between the taps'
/// value and the spline's own evaluation. The 30-term dot product may err
/// by up to 30 eps of that scale (gamma_30, worst case), each tap carries
/// the rounding of the spline evaluation that built it, and the spline's
/// Thomas solve and segment formula err by a few eps of the data they
/// combine, weighted like the taps (which fall about 3.7x per knot away
/// from offset 0): 64 covers the sum. Observed: at most 2.4 on 8,400
/// office captures. One tap off by 1e-9 of itself misses by about 3e4
/// allowances.
constexpr double kTapRoundingUlps = 64.0;

TEST(Interp, TapsMatchTheSplineOnEveryOfficeCapture) {
  // Both directions of every capture of four office sweeps (sim::
  // office_testbed links 1-15 m apart, every impairment on): phase_0 and
  // |h_0| must equal the natural splines through the unwrapped phases and
  // the magnitudes, read at offset 0, within the rounding allowance.
  const std::vector<double> x = subcarrier_offsets();
  const std::vector<double> w = zero_offset_taps(x);
  const sim::Scenario scenario = sim::office_testbed();
  const sim::LinkSimulator link(scenario.environment(), sim::LinkSimConfig{});
  mathx::Rng rng(33);
  std::size_t captures = 0;
  double worst = 0.0;  // largest miss, in units of its allowance
  for (int i = 0; i < 4; ++i) {
    const sim::Placement pl = scenario.sample_pair(rng, 1.0, 15.0);
    const auto sweep = link.simulate_sweep(sim::make_mobile(pl.tx, 11), 0,
                                           sim::make_mobile(pl.rx, 22), 0,
                                           rng);
    for (const auto& band : sweep.bands) {
      for (const auto& cap : band) {
        for (const phy::CsiMeasurement* m : {&cap.forward, &cap.reverse}) {
          std::vector<double> wrapped, phases(x.size()), mags;
          for (const auto& v : m->values) {
            wrapped.push_back(std::arg(v));
            mags.push_back(std::abs(v));
          }
          mathx::unwrap(wrapped, phases);
          const double phase0 = mathx::CubicSpline(x, phases)(0.0);
          const double mag0 =
              std::max(mathx::CubicSpline(x, mags)(0.0), 0.0);
          // |polar(r, a) - polar(r', a')| <= |r - r'| + r |a - a'|, plus
          // each polar's own rounding (2 eps r per component).
          const double allowance =
              kTapRoundingUlps * kEps *
                  (tap_scale(w, mags) + mag0 * tap_scale(w, phases)) +
              8.0 * kEps * mag0;
          const std::complex<double> got = interpolate_to_center(*m)
                                               .zero_subcarrier;
          const double miss = std::abs(got - std::polar(mag0, phase0));
          worst = std::max(worst, miss / allowance);
          ++captures;
        }
      }
    }
  }
  EXPECT_EQ(captures, 4u * 35u * 3u * 2u);
  EXPECT_LE(worst, 1.0);
}

TEST(Interp, TapsReturnALinearPhaseExactly) {
  // A natural spline is exact on a line, so a phase a + b * offset must
  // come back as a (mod 2 pi) at offset 0 up to rounding, whatever the
  // slope: here up to 400 ns of delay, which wraps the phase many times
  // across the band. A unit magnitude must come back as 1.
  const std::vector<double> x = subcarrier_offsets();
  const std::vector<double> w = zero_offset_taps(x);
  const std::vector<double> ones(x.size(), 1.0);
  const auto band = phy::band_by_channel(44);
  for (const double delay : {0.0, 3e-9, 80e-9, 177e-9, 400e-9}) {
    for (const double a : {-3.0, -0.5, 0.0, 1.25, 3.1}) {
      SCOPED_TRACE(testing::Message() << delay << " s, " << a << " rad");
      phy::CsiMeasurement m;
      m.band = band;
      std::vector<double> wrapped;
      for (std::size_t k = 0; k < x.size(); ++k) {
        m.values[k] = std::polar(1.0, a - kTwoPi * x[k] * delay);
        wrapped.push_back(std::arg(m.values[k]));
      }
      // The data the taps see: the line plus one multiple of 2 pi, each
      // value within a few eps of its magnitude.
      std::vector<double> phases(x.size());
      mathx::unwrap(wrapped, phases);
      const auto r = interpolate_to_center(m);
      EXPECT_LE(std::abs(mathx::wrap_to_pi(std::arg(r.zero_subcarrier) - a)),
                kTapRoundingUlps * kEps * tap_scale(w, phases) + 8.0 * kEps);
      EXPECT_LE(std::abs(std::abs(r.zero_subcarrier) - 1.0),
                kTapRoundingUlps * kEps * tap_scale(w, ones) + 8.0 * kEps);
      EXPECT_NEAR(r.toa_slope_s, delay, 1e-15);
    }
  }
}

TEST(Interp, CapturePassAllocatesNothing) {
  const auto m = synth_measurement(phy::band_by_channel(149), 17e-9, 90e-9,
                                   0.0, nullptr);
  double sink = interpolate_to_center(m).toa_slope_s;  // builds the taps
  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 8; ++i) {
    const auto r = interpolate_to_center(m);
    sink += r.zero_subcarrier.real() + r.toa_slope_s;
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

// --- CRT solver --------------------------------------------------------

std::pair<std::vector<std::complex<double>>, std::vector<double>>
crt_inputs(double tau, const std::vector<int>& channels) {
  std::vector<std::complex<double>> h;
  std::vector<double> f;
  for (int ch : channels) {
    const double freq = phy::band_by_channel(ch).center_freq_hz;
    f.push_back(freq);
    h.push_back(std::polar(1.0, -kTwoPi * freq * tau));
  }
  return {h, f};
}

TEST(Crt, CandidateSolutionsSpacedByPeriod) {
  const double freq = 2.412e9;
  const auto c = candidate_solutions(std::polar(1.0, -1.0), freq, 2e-9);
  ASSERT_GE(c.size(), 2u);
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_NEAR(c[i] - c[i - 1], 1.0 / freq, 1e-15);
  }
}

TEST(Crt, RecoversFig3Example) {
  // Paper Fig 3: source at 0.6 m (tau = 2 ns), five bands.
  const double tau = 2e-9;
  const auto [h, f] = crt_inputs(tau, {1, 11, 36, 64, 165});
  const auto sol = solve_crt(h, f, 60e-9);
  EXPECT_NEAR(sol.tof_s, tau, 0.02e-9);
  EXPECT_EQ(sol.satisfied_equations, 5);
}

class CrtTauSweep : public ::testing::TestWithParam<double> {};

TEST_P(CrtTauSweep, RecoversAcrossRangeWithAllBands) {
  const double tau = GetParam();
  std::vector<int> channels;
  for (const auto& b : phy::us_band_plan()) channels.push_back(b.channel);
  const auto [h, f] = crt_inputs(tau, channels);
  const auto sol = solve_crt(h, f, 120e-9);
  EXPECT_NEAR(sol.tof_s, tau, 0.02e-9);
}

INSTANTIATE_TEST_SUITE_P(Taus, CrtTauSweep,
                         ::testing::Values(1e-9, 5e-9, 13.34e-9, 33e-9,
                                           50e-9, 99e-9));

TEST(Crt, NoisyPhasesStillVoteCorrectly) {
  mathx::Rng rng(9);
  const double tau = 20e-9;
  std::vector<int> channels;
  for (const auto& b : phy::us_band_plan()) channels.push_back(b.channel);
  auto [h, f] = crt_inputs(tau, channels);
  for (auto& v : h) v *= std::polar(1.0, rng.normal(0.0, 0.25));
  const auto sol = solve_crt(h, f, 120e-9);
  EXPECT_NEAR(sol.tof_s, tau, 0.05e-9);
}

TEST(Crt, AlignmentScorePeaksAtTruth) {
  const double tau = 15e-9;
  std::vector<int> channels;
  for (const auto& b : phy::us_band_plan()) channels.push_back(b.channel);
  const auto [h, f] = crt_inputs(tau, channels);
  const double at_truth = alignment_score(h, f, tau);
  EXPECT_NEAR(at_truth, 35.0, 1e-9);
  EXPECT_LT(alignment_score(h, f, tau + 0.5e-9), at_truth);
  EXPECT_LT(alignment_score(h, f, tau - 0.5e-9), at_truth);
}

TEST(Crt, RejectsMalformedInput) {
  std::vector<std::complex<double>> h = {{1.0, 0.0}};
  std::vector<double> f = {2.4e9};
  EXPECT_THROW((void)solve_crt(h, f), std::invalid_argument);
}

}  // namespace
}  // namespace chronos::core
