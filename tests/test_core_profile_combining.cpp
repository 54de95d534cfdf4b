#include <gtest/gtest.h>

#include <cmath>

#include "core/combining.hpp"
#include "core/profile.hpp"
#include "core/subcarrier_interp.hpp"
#include "mathx/constants.hpp"
#include "mathx/unwrap.hpp"
#include "phy/band_plan.hpp"

namespace chronos::core {
namespace {

using mathx::kTwoPi;

SparseSolveResult make_solution(const std::vector<double>& mags,
                                double step_s = 1e-9) {
  SparseSolveResult s;
  s.grid = {0.0, static_cast<double>(mags.size() - 1) * step_s, step_s};
  for (double m : mags) s.coefficients.push_back({m, 0.0});
  return s;
}

TEST(Profile, ExtractsIsolatedClusters) {
  // On a 1 ns grid the 0.6 ns merge gap is under one bin, so the floor of
  // one bin holds: a single silent bin ends a cluster.
  static_assert(kProfileMergeGapS < 1e-9);
  const auto sol = make_solution({0, 0, 1.0, 0.9, 0, 0.5, 0, 0, 0, 0, 0, 0});
  const auto prof = extract_profile(sol);
  ASSERT_EQ(prof.peaks.size(), 2u);
  EXPECT_NEAR(prof.peaks[0].delay_s, 2.47e-9, 0.1e-9);  // centroid of 2,3
  EXPECT_NEAR(prof.peaks[0].amplitude, 1.0, 1e-12);
  EXPECT_NEAR(prof.peaks[1].delay_s, 5e-9, 1e-12);
}

TEST(Profile, MergeGapJoinsNearbyClusters) {
  // On a 0.25 ns grid the 0.6 ns merge gap truncates to 2 bins: a single
  // silent bin merges two clusters, two silent bins split them.
  constexpr double kStep = 0.25e-9;
  static_assert(kProfileMergeGapS / kStep >= 2.0 &&
                kProfileMergeGapS / kStep < 3.0);
  const auto merged = extract_profile(
      make_solution({0, 1.0, 0, 0.8, 0, 0, 0, 0, 0, 0, 0, 0}, kStep));
  ASSERT_EQ(merged.peaks.size(), 1u);
  EXPECT_EQ(merged.peaks[0].first_bin, 1u);
  EXPECT_EQ(merged.peaks[0].last_bin, 3u);
  const auto split = extract_profile(
      make_solution({0, 1.0, 0, 0, 0.8, 0, 0, 0, 0, 0, 0, 0}, kStep));
  ASSERT_EQ(split.peaks.size(), 2u);
  EXPECT_EQ(split.peaks[0].last_bin, 1u);
  EXPECT_EQ(split.peaks[1].first_bin, 4u);
}

TEST(Profile, NoiseFloorSuppressesWeakBins) {
  // 0.001 and 0.002 lie below the 5% floor of the 1.0 maximum.
  static_assert(kProfileNoiseFloorFraction > 0.002);
  const auto sol = make_solution({0.001, 0, 1.0, 0, 0.002, 0, 0, 0, 0, 0});
  const auto prof = extract_profile(sol);
  ASSERT_EQ(prof.peaks.size(), 1u);
}

TEST(Profile, FirstPeakSkipsWeakEarlyArtifacts) {
  const auto sol = make_solution({0, 0.05, 0, 0, 1.0, 0, 0.7, 0, 0, 0});
  const auto prof = extract_profile(sol);
  const auto fp = first_peak(prof, 0.2);
  ASSERT_TRUE(fp.has_value());
  EXPECT_NEAR(fp->delay_s, 4e-9, 1e-12);
}

TEST(Profile, FirstPeakAcceptsWeakButSignificantDirect) {
  const auto sol = make_solution({0, 0, 0.4, 0, 0, 1.0, 0, 0, 0, 0});
  const auto prof = extract_profile(sol);
  const auto fp = first_peak(prof, 0.3);
  ASSERT_TRUE(fp.has_value());
  EXPECT_NEAR(fp->delay_s, 2e-9, 1e-12);
}

TEST(Profile, DominantPeakCount) {
  const auto sol =
      make_solution({0, 1.0, 0, 0.5, 0, 0.3, 0, 0.15, 0, 0.04, 0, 0});
  const auto prof = extract_profile(sol);
  EXPECT_EQ(dominant_peak_count(prof, 0.2), 3u);
  EXPECT_EQ(dominant_peak_count(prof, 0.1), 4u);
}

TEST(Profile, EmptyAndSilentInputs) {
  SparseSolveResult s;
  EXPECT_THROW((void)extract_profile(s), std::invalid_argument);
  const auto silent = make_solution({0, 0, 0, 0});
  const auto prof = extract_profile(silent);
  EXPECT_TRUE(prof.peaks.empty());
  EXPECT_FALSE(first_peak(prof).has_value());
  EXPECT_EQ(dominant_peak_count(prof), 0u);
}

// --- combining ---------------------------------------------------------

phy::SweepMeasurement two_band_sweep(double tau, double cfo_phase,
                                     double lo_phase) {
  phy::SweepMeasurement sweep;
  for (int ch : {36, 1}) {
    const auto band = phy::band_by_channel(ch);
    phy::SweepMeasurement::BandCapture cap;
    const auto idx = phy::intel5300_subcarrier_indices();
    cap.forward.band = band;
    cap.reverse.band = band;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const double f = band.center_freq_hz + phy::subcarrier_offset_hz(idx[k]);
      const std::complex<double> h = std::polar(1.0, -kTwoPi * f * tau);
      cap.forward.values[k] = h * std::polar(1.0, cfo_phase + lo_phase);
      cap.reverse.values[k] = h * std::polar(1.0, -(cfo_phase + lo_phase));
    }
    sweep.bands.push_back({cap});
  }
  return sweep;
}

TEST(Combining, TwoWayProductCancelsCommonPhaseErrors) {
  const double tau = 10e-9;
  const auto clean = two_band_sweep(tau, 0.0, 0.0);
  const auto dirty = two_band_sweep(tau, 1.3, 2.1);
  CombiningConfig cfg;
  cfg.quirk_fix = false;
  cfg.normalization = Normalization::kNone;
  const auto a = combine_sweep(clean, cfg);
  const auto b = combine_sweep(dirty, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::arg(a[i].value * std::conj(b[i].value)), 0.0, 1e-9);
  }
}

TEST(Combining, OneWayKeepsPhaseErrors) {
  const double tau = 10e-9;
  const auto clean = two_band_sweep(tau, 0.0, 0.0);
  const auto dirty = two_band_sweep(tau, 0.0, 1.0);
  CombiningConfig cfg;
  cfg.two_way = false;
  cfg.quirk_fix = false;
  cfg.normalization = Normalization::kNone;
  const auto a = combine_sweep(clean, cfg);
  const auto b = combine_sweep(dirty, cfg);
  EXPECT_GT(std::abs(std::arg(a[0].value * std::conj(b[0].value))), 0.5);
}

TEST(Combining, QuirkFixSetsExponentAndRowFrequency) {
  const auto sweep = two_band_sweep(5e-9, 0.0, 0.0);
  CombiningConfig cfg;  // quirk_fix default on
  const auto combined = combine_sweep(sweep, cfg);
  ASSERT_EQ(combined.size(), 2u);
  // Band order: channel 36 (5 GHz) then channel 1 (2.4 GHz).
  EXPECT_EQ(quadrant_exponent(combined[0].band, cfg), 1);
  EXPECT_DOUBLE_EQ(combined[0].row_freq_hz, 5.18e9);
  EXPECT_EQ(quadrant_exponent(combined[1].band, cfg), 4);
  EXPECT_DOUBLE_EQ(combined[1].row_freq_hz, 4.0 * 2.412e9);
  // Without the fix every band keeps exponent 1 and its own frequency.
  cfg.quirk_fix = false;
  const auto plain = combine_sweep(sweep, cfg);
  EXPECT_EQ(quadrant_exponent(plain[1].band, cfg), 1);
  EXPECT_DOUBLE_EQ(plain[1].row_freq_hz, 2.412e9);
}

TEST(Combining, KeepsEachDirectionsMeanToaSlope) {
  // Two exchanges per band, the first with 30 ns more delay on its reverse
  // capture: each band keeps the per-capture mean slope of each direction,
  // whether or not the reverse value multiplies in.
  auto sweep = two_band_sweep(5e-9, 0.4, -0.2);
  const auto late = two_band_sweep(35e-9, 0.4, -0.2);
  const auto second = two_band_sweep(7e-9, 1.0, 0.5);
  for (std::size_t b = 0; b < sweep.bands.size(); ++b) {
    sweep.bands[b][0].reverse = late.bands[b][0].reverse;
    sweep.bands[b].push_back(second.bands[b][0]);
  }
  for (const bool two_way : {true, false}) {
    SCOPED_TRACE(two_way);
    CombiningConfig cfg;
    cfg.two_way = two_way;
    const auto combined = combine_sweep(sweep, cfg);
    ASSERT_EQ(combined.size(), sweep.bands.size());
    for (std::size_t b = 0; b < combined.size(); ++b) {
      double fwd = 0.0;
      double rev = 0.0;
      for (const auto& cap : sweep.bands[b]) {
        fwd += interpolate_to_center(cap.forward).toa_slope_s;
        rev += interpolate_to_center(cap.reverse).toa_slope_s;
      }
      EXPECT_EQ(combined[b].toa_slope_s, fwd / 2.0);
      EXPECT_EQ(combined[b].reverse_toa_slope_s, rev / 2.0);
      EXPECT_NEAR(combined[b].toa_slope_s, 6e-9, 1e-12);
      EXPECT_NEAR(combined[b].reverse_toa_slope_s, 21e-9, 1e-12);
    }
  }
}

TEST(Combining, CombinedPhaseMatchesRowFrequencyModel) {
  const double tau = 7e-9;
  const auto sweep = two_band_sweep(tau, 0.9, -0.4);
  CombiningConfig cfg;
  cfg.normalization = Normalization::kNone;
  const auto combined = combine_sweep(sweep, cfg);
  for (const auto& cb : combined) {
    // Expected phase: -2*pi*row_freq*(2*tau) on the u axis.
    const double expect = -kTwoPi * cb.row_freq_hz * 2.0 * tau;
    EXPECT_NEAR(mathx::wrap_to_pi(std::arg(cb.value) - expect), 0.0, 1e-6);
  }
}

TEST(Combining, BandAgcCapsMagnitude) {
  auto sweep = two_band_sweep(5e-9, 0.0, 0.0);
  // Inflate the 2.4 GHz band's innermost forward subcarriers: the
  // interpolated zero-subcarrier value then outgrows the band RMS, and the
  // quadrant fix's 4th power pushes the combined value far past the cap.
  // (Scaling every subcarrier would cancel in the band AGC.)
  const auto idx = phy::intel5300_subcarrier_indices();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (std::abs(idx[k]) <= 2) sweep.bands[1][0].forward.values[k] *= 10.0;
  }
  const auto combined = combine_sweep(sweep, CombiningConfig{});
  ASSERT_EQ(combined.size(), 2u);
  for (const auto& cb : combined) {
    EXPECT_LE(std::abs(cb.value), kBandAgcMagnitudeCap + 1e-9);
  }
  EXPECT_NEAR(std::abs(combined[1].value), kBandAgcMagnitudeCap, 1e-9);
}

TEST(Combining, DelayAxisScale) {
  CombiningConfig two_way;
  EXPECT_DOUBLE_EQ(delay_axis_scale(two_way), 2.0);
  CombiningConfig one_way;
  one_way.two_way = false;
  EXPECT_DOUBLE_EQ(delay_axis_scale(one_way), 1.0);
}

TEST(Combining, CalibrationTableSizeMismatchThrows) {
  const auto sweep = two_band_sweep(5e-9, 0.0, 0.0);
  CalibrationTable table;
  table.correction = {std::polar(1.0, 0.1)};  // one band, sweep has two
  EXPECT_THROW((void)combine_sweep(sweep, {}, table), std::invalid_argument);
}

}  // namespace
}  // namespace chronos::core
