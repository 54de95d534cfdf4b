#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "mathx/rng.hpp"
#include "mathx/stats.hpp"
#include "phy/band_plan.hpp"
#include "phy/csi.hpp"
#include "phy/detection.hpp"
#include "phy/intel5300.hpp"

namespace chronos::phy {
namespace {

TEST(Csi, ThirtyGroupedSubcarriers) {
  const auto idx = intel5300_subcarrier_indices();
  ASSERT_EQ(idx.size(), 30u);
  EXPECT_EQ(idx.front(), -28);
  EXPECT_EQ(idx.back(), 28);
  // Strictly increasing, no DC.
  for (std::size_t i = 1; i < idx.size(); ++i) EXPECT_GT(idx[i], idx[i - 1]);
  for (int k : idx) EXPECT_NE(k, 0);
}

TEST(Csi, SubcarrierOffsets) {
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(0), 0.0);
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(1), 312.5e3);
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(-28), -8.75e6);
}

TEST(Csi, FrequencyAt) {
  CsiMeasurement m;
  m.band = band_by_channel(36);
  EXPECT_DOUBLE_EQ(m.frequency_at(0), 5.18e9 - 8.75e6);
  EXPECT_DOUBLE_EQ(m.frequency_at(29), 5.18e9 + 8.75e6);
  EXPECT_THROW((void)m.frequency_at(30), std::invalid_argument);
}

SweepMeasurement minimal_sweep() {
  SweepMeasurement sweep;
  SweepMeasurement::BandCapture cap;
  cap.forward.band = band_by_channel(36);
  cap.forward.values.fill({1.0, 0.0});
  cap.reverse.band = band_by_channel(36);
  cap.reverse.values.fill({1.0, 0.0});
  sweep.bands.push_back({cap, cap});
  return sweep;
}

void expect_malformed(const SweepMeasurement& sweep) {
  const chronos::Status status = check_sweep(sweep);
  EXPECT_EQ(status.code(), chronos::StatusCode::kMalformedSweep)
      << status.to_string();
}

TEST(Csi, CheckSweepAcceptsWellFormedSweep) {
  EXPECT_TRUE(check_sweep(minimal_sweep()).ok());
}

TEST(Csi, CheckSweepRejectsBandMismatch) {
  // Within one capture, and across the captures of one band.
  auto sweep = minimal_sweep();
  sweep.bands[0][0].reverse.band = band_by_channel(40);
  expect_malformed(sweep);
  sweep = minimal_sweep();
  sweep.bands[0][1].forward.band = band_by_channel(40);
  sweep.bands[0][1].reverse.band = band_by_channel(40);
  expect_malformed(sweep);
  // Same channel, another center frequency: a different band.
  sweep = minimal_sweep();
  sweep.bands[0][1].reverse.band.center_freq_hz += 5e6;
  expect_malformed(sweep);
}

TEST(Csi, CheckSweepRejectsEmpty) {
  SweepMeasurement empty;
  expect_malformed(empty);
  auto no_captures = minimal_sweep();
  no_captures.bands.emplace_back();
  expect_malformed(no_captures);
}

TEST(Csi, CheckSweepRejectsZeroOrNonFiniteEnergy) {
  auto zero = minimal_sweep();
  zero.bands[0][1].reverse.values.fill({0.0, 0.0});
  expect_malformed(zero);
  auto nan = minimal_sweep();
  nan.bands[0][0].forward.values[7] = {std::nan(""), 0.0};
  expect_malformed(nan);
  // Finite values whose energy overflows.
  auto huge = minimal_sweep();
  huge.bands[0][0].forward.values.fill({1e200, 0.0});
  expect_malformed(huge);
}

TEST(Csi, CheckSweepRejectsNonFiniteTimestampOrSnr) {
  auto snr = minimal_sweep();
  snr.bands[0][1].reverse.snr_db = std::nan("");
  expect_malformed(snr);
  auto timestamp = minimal_sweep();
  timestamp.bands[0][0].forward.timestamp_s =
      -std::numeric_limits<double>::infinity();
  expect_malformed(timestamp);
}

TEST(Csi, CheckPlanComparesTheWholeBand) {
  const auto sweep = minimal_sweep();
  const std::vector<WifiBand> plan = {band_by_channel(36)};
  EXPECT_TRUE(check_plan(sweep, plan).ok());

  const std::vector<WifiBand> longer = {band_by_channel(36),
                                        band_by_channel(40)};
  EXPECT_EQ(check_plan(sweep, longer).code(),
            chronos::StatusCode::kBandMismatch);
  const std::vector<WifiBand> other = {band_by_channel(40)};
  EXPECT_EQ(check_plan(sweep, other).code(),
            chronos::StatusCode::kBandMismatch);
  std::vector<WifiBand> shifted = plan;
  shifted[0].center_freq_hz += 5e6;
  EXPECT_EQ(check_plan(sweep, shifted).code(),
            chronos::StatusCode::kBandMismatch);
}

// --- detection model -------------------------------------------------------

TEST(Detection, DelayIsAlwaysAbovePipelineLatency) {
  mathx::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(sample_detection_delay_s(30.0, rng), kDetectionPipelineDelayS);
  }
}

TEST(Detection, MeanDelayDecreasesWithSnr) {
  EXPECT_GT(expected_detection_delay_s(15.0), expected_detection_delay_s(25.0));
  EXPECT_GT(expected_detection_delay_s(25.0), expected_detection_delay_s(40.0));
}

TEST(Detection, SampleMeanMatchesExpectedDelay) {
  mathx::Rng rng(17);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(sample_detection_delay_s(25.0, rng));
  EXPECT_NEAR(mathx::mean(samples), expected_detection_delay_s(25.0), 2e-9);
}

TEST(Detection, PopulationStatisticsMatchPaperScale) {
  // Across typical indoor SNRs the delay population should sit near the
  // paper's median 177 ns with a ~25 ns spread (Fig 7c).
  mathx::Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const double snr = rng.uniform(20.0, 38.0);
    samples.push_back(sample_detection_delay_s(snr, rng));
  }
  const double med = mathx::median(samples);
  EXPECT_GT(med, 150e-9);
  EXPECT_LT(med, 210e-9);
  const double sd = mathx::stddev(samples);
  EXPECT_GT(sd, 10e-9);
  EXPECT_LT(sd, 45e-9);
}

TEST(Detection, RejectsAbsurdSnr) {
  mathx::Rng rng(1);
  EXPECT_THROW((void)sample_detection_delay_s(-30.0, rng),
               std::invalid_argument);
}

// --- Intel 5300 quirk -------------------------------------------------------

TEST(Intel5300, PerDirectionExponents) {
  EXPECT_EQ(per_direction_exponent(band_by_channel(1)), 4);
  EXPECT_EQ(per_direction_exponent(band_by_channel(36)), 1);
}

}  // namespace
}  // namespace chronos::phy
