// Natural cubic spline interpolation.
//
// Chronos (§5) recovers the channel at a band's center frequency — the
// zero-subcarrier, where packet-detection delay contributes no phase — by
// interpolating the unwrapped phase (and magnitude) measured on the 30
// non-zero subcarriers the Intel 5300 reports. The paper's implementation
// uses cubic splines; this is a from-scratch equivalent.
#pragma once

#include <span>
#include <vector>

namespace chronos::mathx {

/// Natural cubic spline through (x_i, y_i). x must be strictly increasing
/// and contain at least two points (two points degrade gracefully to linear
/// interpolation).
class CubicSpline {
 public:
  CubicSpline(std::span<const double> x, std::span<const double> y);

  /// Evaluates the spline at `x`. Outside the knot range the boundary cubic
  /// polynomial is extrapolated — exactly what Chronos needs when the probed
  /// point (subcarrier 0) lies inside the knot hull but callers may also
  /// probe slightly outside (e.g. guard subcarriers).
  double operator()(double x) const;

 private:
  std::size_t segment_of(double x) const;

  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> m_;  // second derivatives at knots
};

}  // namespace chronos::mathx
