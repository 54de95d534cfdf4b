// Descriptive statistics used by the evaluation harnesses: medians,
// percentiles, CDF series and histograms — the quantities every figure in
// the paper's §12 reports.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace chronos::mathx {

/// Arithmetic mean. Empty input is a precondition violation.
double mean(std::span<const double> v);

/// Unbiased (n-1) standard deviation; 0 for a single sample.
double stddev(std::span<const double> v);

/// Root mean square of the samples (used for the drone's distance deviation).
double rms(std::span<const double> v);

/// p-th percentile with linear interpolation, p in [0, 100].
double percentile(std::span<const double> v, double p);

/// Median, i.e. percentile(v, 50).
double median(std::span<const double> v);

/// One point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;       ///< sample value
  double cumulative = 0.0;  ///< fraction of samples <= value, in (0, 1]
};

/// Samples the empirical CDF at evenly spaced cumulative fractions, which is
/// how the benches print compact CDF series matching the paper's figures.
std::vector<CdfPoint> cdf_series(std::span<const double> v,
                                 std::size_t points = 11);

/// Fixed-width histogram over [lo, hi); samples outside are clamped into the
/// terminal bins so mass is conserved.
struct Histogram {
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::size_t> counts;

  double bin_width() const;
  double bin_center(std::size_t i) const;
  /// Fraction of all samples in bin i.
  double fraction(std::size_t i) const;
  std::size_t total() const;
};

Histogram histogram(std::span<const double> v, double lo, double hi,
                    std::size_t bins);

}  // namespace chronos::mathx
