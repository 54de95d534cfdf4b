#include "core/subcarrier_interp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"
#include "mathx/cvec.hpp"
#include "mathx/spline.hpp"
#include "mathx/unwrap.hpp"

namespace chronos::core {

namespace {

/// Subcarrier frequency offsets of the 30 reported subcarriers (strictly
/// increasing by layout): the spline knots and the slope fit's abscissae.
/// Built once; every capture reads the same table.
std::span<const double> subcarrier_offsets() {
  static const std::array<double, phy::kIntel5300Subcarriers> x = [] {
    const auto indices = phy::intel5300_subcarrier_indices();
    std::array<double, phy::kIntel5300Subcarriers> out{};
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = phy::subcarrier_offset_hz(indices[k]);
    }
    return out;
  }();
  return x;
}

/// The one ToA slope: unwraps m's subcarrier phases into `phases` and
/// returns -slope / 2pi of their least-squares line over the offsets `x`
/// (the unwrapped phase falls by 2pi * toa per Hz of offset).
double fit_toa_slope(const phy::CsiMeasurement& m, std::span<const double> x,
                     std::vector<double>& phases) {
  phases = mathx::unwrap(mathx::angles(m.values));
  const auto n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    sx += x[k];
    sy += phases[k];
    sxx += x[k] * x[k];
    sxy += x[k] * phases[k];
  }
  const double denom = n * sxx - sx * sx;
  CHRONOS_ENSURES(std::abs(denom) > 0.0, "degenerate subcarrier layout");
  const double slope = (n * sxy - sx * sy) / denom;
  return -slope / mathx::kTwoPi;
}

}  // namespace

InterpolationResult interpolate_to_center(const phy::CsiMeasurement& m) {
  const std::span<const double> x = subcarrier_offsets();
  std::vector<double> phases;
  InterpolationResult out;
  out.toa_slope_s = fit_toa_slope(m, x, phases);

  const auto mags = mathx::magnitudes(m.values);
  const mathx::CubicSpline phase_spline(x, phases);
  const mathx::CubicSpline mag_spline(x, mags);
  const double phase0 = phase_spline(0.0);
  const double mag0 = std::max(mag_spline(0.0), 0.0);
  out.zero_subcarrier = std::polar(mag0, phase0);
  return out;
}

double toa_slope(const phy::CsiMeasurement& m) {
  std::vector<double> phases;
  return fit_toa_slope(m, subcarrier_offsets(), phases);
}

}  // namespace chronos::core
