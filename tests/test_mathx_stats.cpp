#include <gtest/gtest.h>

#include <vector>

#include "mathx/stats.hpp"

namespace chronos::mathx {
namespace {

TEST(Stats, MeanAndStd) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(mean(v), 2.5, 1e-12);
  EXPECT_NEAR(stddev(v), 1.2909944487358056, 1e-12);
}

TEST(Stats, SingleSampleStdIsZero) {
  const std::vector<double> v = {3.0};
  EXPECT_EQ(stddev(v), 0.0);
}

TEST(Stats, EmptyInputsThrow) {
  const std::vector<double> v;
  EXPECT_THROW((void)mean(v), std::invalid_argument);
  EXPECT_THROW((void)median(v), std::invalid_argument);
  EXPECT_THROW((void)rms(v), std::invalid_argument);
}

TEST(Stats, Rms) {
  const std::vector<double> v = {3.0, 4.0};
  EXPECT_NEAR(rms(v), 3.5355339059327378, 1e-12);
}

TEST(Stats, MedianOddEven) {
  EXPECT_NEAR(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0, 1e-12);
  EXPECT_NEAR(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_NEAR(percentile(v, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(percentile(v, 25.0), 2.5, 1e-12);
  EXPECT_NEAR(percentile(v, 100.0), 10.0, 1e-12);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
}

TEST(Stats, PercentileIsMonotonic) {
  const std::vector<double> v = {5.0, 1.0, 9.0, 3.0, 7.0, 2.0};
  double prev = percentile(v, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = percentile(v, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Stats, CdfSeriesSamplesQuantiles) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const auto series = cdf_series(v, 5);
  ASSERT_EQ(series.size(), 5u);
  EXPECT_NEAR(series[0].value, 0.0, 1e-9);
  EXPECT_NEAR(series[2].value, 50.0, 1e-9);
  EXPECT_NEAR(series[4].value, 100.0, 1e-9);
}

TEST(Stats, HistogramBinsAndClamping) {
  const std::vector<double> v = {-1.0, 0.1, 0.5, 0.9, 5.0};
  const auto h = histogram(v, 0.0, 1.0, 2);
  ASSERT_EQ(h.counts.size(), 2u);
  // -1 clamps into bin 0; 5.0 clamps into bin 1.
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 3u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_NEAR(h.bin_width(), 0.5, 1e-12);
  EXPECT_NEAR(h.bin_center(0), 0.25, 1e-12);
  EXPECT_NEAR(h.fraction(1), 0.6, 1e-12);
}

TEST(Stats, HistogramRejectsBadRange) {
  const std::vector<double> v = {1.0};
  EXPECT_THROW((void)histogram(v, 1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW((void)histogram(v, 0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace chronos::mathx
