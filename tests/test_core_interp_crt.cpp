#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>

#include "core/crt.hpp"
#include "core/subcarrier_interp.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "mathx/unwrap.hpp"
#include "phy/band_plan.hpp"
#include "sim/link.hpp"
#include "sim/radio.hpp"
#include "sim/scenario.hpp"

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

TEST(Interp, ToaSlopeIsTheInterpolationSlopeBitwise) {
  // Both directions of every capture of five office sweeps (sim::
  // office_testbed links 1-15 m apart, every impairment on): the slope
  // alone must be the full interpolation's slope, bit for bit.
  const sim::Scenario scenario = sim::office_testbed();
  const sim::LinkSimulator link(scenario.environment(), sim::LinkSimConfig{});
  mathx::Rng rng(21);
  std::size_t captures = 0;
  std::size_t mismatches = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const sim::Placement pl = scenario.sample_pair(rng, 1.0, 15.0);
    const auto sweep = link.simulate_sweep(sim::make_mobile(pl.tx, 11), 0,
                                           sim::make_mobile(pl.rx, 22), 0,
                                           rng);
    for (const auto& band : sweep.bands) {
      for (const auto& cap : band) {
        for (const phy::CsiMeasurement* m : {&cap.forward, &cap.reverse}) {
          const double want = interpolate_to_center(*m).toa_slope_s;
          mismatches += std::bit_cast<std::uint64_t>(toa_slope(*m)) !=
                        std::bit_cast<std::uint64_t>(want);
          ++captures;
        }
      }
    }
  }
  EXPECT_EQ(captures, 5u * 35u * 3u * 2u);
  EXPECT_EQ(mismatches, 0u);
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
