#include "mathx/stats.hpp"

#include <algorithm>
#include <cmath>

#include "mathx/contracts.hpp"

namespace chronos::mathx {

double mean(std::span<const double> v) {
  CHRONOS_EXPECTS(!v.empty(), "mean of empty sample");
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) {
  CHRONOS_EXPECTS(!v.empty(), "stddev of empty sample");
  if (v.size() == 1) return 0.0;
  const double mu = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

double rms(std::span<const double> v) {
  CHRONOS_EXPECTS(!v.empty(), "rms of empty sample");
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc / static_cast<double>(v.size()));
}

double percentile(std::span<const double> v, double p) {
  CHRONOS_EXPECTS(!v.empty(), "percentile of empty sample");
  CHRONOS_EXPECTS(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
  std::vector<double> sorted(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double median(std::span<const double> v) { return percentile(v, 50.0); }

std::vector<CdfPoint> cdf_series(std::span<const double> v,
                                 std::size_t points) {
  CHRONOS_EXPECTS(points >= 2, "cdf series needs at least two points");
  std::vector<CdfPoint> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double frac =
        static_cast<double>(i) / static_cast<double>(points - 1);
    const double p = frac * 100.0;
    out.push_back({percentile(v, p), frac});
  }
  return out;
}

double Histogram::bin_width() const {
  return (hi - lo) / static_cast<double>(counts.size());
}

double Histogram::bin_center(std::size_t i) const {
  return lo + (static_cast<double>(i) + 0.5) * bin_width();
}

double Histogram::fraction(std::size_t i) const {
  const std::size_t n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(counts[i]) / static_cast<double>(n);
}

std::size_t Histogram::total() const {
  std::size_t n = 0;
  for (std::size_t c : counts) n += c;
  return n;
}

Histogram histogram(std::span<const double> v, double lo, double hi,
                    std::size_t bins) {
  CHRONOS_EXPECTS(hi > lo, "histogram range must be non-empty");
  CHRONOS_EXPECTS(bins > 0, "histogram needs at least one bin");
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : v) {
    auto idx = static_cast<long long>(std::floor((x - lo) / width));
    idx = std::clamp<long long>(idx, 0, static_cast<long long>(bins) - 1);
    ++h.counts[static_cast<std::size_t>(idx)];
  }
  return h;
}

}  // namespace chronos::mathx
