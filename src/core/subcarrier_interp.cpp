#include "core/subcarrier_interp.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"
#include "mathx/spline.hpp"
#include "mathx/unwrap.hpp"

namespace chronos::core {

namespace {

constexpr std::size_t kSubcarriers = phy::kIntel5300Subcarriers;
using SubcarrierRow = std::array<double, kSubcarriers>;

/// What the fixed Intel 5300 layout determines, built once and shared by
/// every capture: the 30 subcarrier frequency offsets (strictly increasing,
/// the spline knots and the slope fit's abscissae), the layout's sums in
/// the least-squares slope, and the zero-offset taps.
struct SubcarrierLayout {
  SubcarrierRow x{};
  /// The slope fit's terms that depend only on the offsets: sum_k x_k and
  /// sum_k x_k^2 (accumulated in index order) and n sum x^2 - (sum x)^2.
  double sx = 0.0;
  double sxx = 0.0;
  double denom = 0.0;
  /// w_k = S_k(0), the natural cubic spline through (x, e_k) read at
  /// offset 0. A natural spline on fixed knots is linear in its data, so
  /// the spline through (x, y) reads sum_k w_k y_k at offset 0.
  SubcarrierRow w{};
};

const SubcarrierLayout& layout() {
  static const SubcarrierLayout l = [] {
    SubcarrierLayout out;
    const auto indices = phy::intel5300_subcarrier_indices();
    for (std::size_t k = 0; k < kSubcarriers; ++k) {
      out.x[k] = phy::subcarrier_offset_hz(indices[k]);
      out.sx += out.x[k];
      out.sxx += out.x[k] * out.x[k];
    }
    const auto n = static_cast<double>(kSubcarriers);
    out.denom = n * out.sxx - out.sx * out.sx;
    CHRONOS_ENSURES(std::abs(out.denom) > 0.0, "degenerate subcarrier layout");
    for (std::size_t k = 0; k < kSubcarriers; ++k) {
      SubcarrierRow unit{};
      unit[k] = 1.0;
      out.w[k] = mathx::CubicSpline(out.x, unit)(0.0);
    }
    return out;
  }();
  return l;
}

}  // namespace

InterpolationResult interpolate_to_center(const phy::CsiMeasurement& m) {
  const SubcarrierLayout& l = layout();
  // lint:region(no-alloc)  — one pass per capture on fixed-size rows
  SubcarrierRow wrapped{};
  for (std::size_t k = 0; k < kSubcarriers; ++k) {
    wrapped[k] = std::arg(m.values[k]);
  }
  SubcarrierRow phases{};
  mathx::unwrap(wrapped, phases);

  // The slope fit's data sums and the taps, each accumulated in index order.
  double sy = 0.0, sxy = 0.0, phase0 = 0.0, mag0 = 0.0;
  for (std::size_t k = 0; k < kSubcarriers; ++k) {
    sy += phases[k];
    sxy += l.x[k] * phases[k];
    phase0 += l.w[k] * phases[k];
    mag0 += l.w[k] * std::sqrt(std::norm(m.values[k]));
  }
  // The unwrapped phase falls by 2pi * toa per Hz of offset: the ToA is
  // -slope / 2pi of the least-squares line through it.
  const auto n = static_cast<double>(kSubcarriers);
  const double slope = (n * sxy - l.sx * sy) / l.denom;
  InterpolationResult out;
  out.toa_slope_s = -slope / mathx::kTwoPi;
  out.zero_subcarrier = std::polar(std::max(mag0, 0.0), phase0);
  // lint:endregion(no-alloc)
  return out;
}

}  // namespace chronos::core
