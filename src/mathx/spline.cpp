#include "mathx/spline.hpp"

#include <algorithm>
#include <cmath>

#include "mathx/contracts.hpp"

namespace chronos::mathx {

CubicSpline::CubicSpline(std::span<const double> x, std::span<const double> y)
    : x_(x.begin(), x.end()), y_(y.begin(), y.end()) {
  CHRONOS_EXPECTS(x_.size() == y_.size(), "spline: x/y size mismatch");
  CHRONOS_EXPECTS(x_.size() >= 2, "spline needs at least two knots");
  for (std::size_t i = 1; i < x_.size(); ++i)
    CHRONOS_EXPECTS(x_[i] > x_[i - 1], "spline knots must strictly increase");

  const std::size_t n = x_.size();
  m_.assign(n, 0.0);
  if (n == 2) return;  // linear segment; second derivatives stay zero

  // Solve the tridiagonal system for natural boundary conditions
  // (m_0 = m_{n-1} = 0) with the Thomas algorithm.
  std::vector<double> h(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) h[i] = x_[i + 1] - x_[i];

  // Interior equations: h_{i-1} m_{i-1} + 2(h_{i-1}+h_i) m_i + h_i m_{i+1}
  //                     = 6 ((y_{i+1}-y_i)/h_i - (y_i-y_{i-1})/h_{i-1})
  std::vector<double> a(n, 0.0), b(n, 0.0), c(n, 0.0), d(n, 0.0);
  b[0] = 1.0;
  b[n - 1] = 1.0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    a[i] = h[i - 1];
    b[i] = 2.0 * (h[i - 1] + h[i]);
    c[i] = h[i];
    d[i] = 6.0 * ((y_[i + 1] - y_[i]) / h[i] - (y_[i] - y_[i - 1]) / h[i - 1]);
  }

  // Thomas forward sweep.
  for (std::size_t i = 1; i < n; ++i) {
    const double w = a[i] / b[i - 1];
    b[i] -= w * c[i - 1];
    d[i] -= w * d[i - 1];
  }
  // Back substitution.
  m_[n - 1] = d[n - 1] / b[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) m_[i] = (d[i] - c[i] * m_[i + 1]) / b[i];
}

std::size_t CubicSpline::segment_of(double x) const {
  // Find i with x_[i] <= x < x_[i+1], clamped to valid segments so queries
  // outside the hull extrapolate the boundary polynomial.
  if (x <= x_.front()) return 0;
  if (x >= x_.back()) return x_.size() - 2;
  const auto it = std::upper_bound(x_.begin(), x_.end(), x);
  return static_cast<std::size_t>(std::distance(x_.begin(), it)) - 1;
}

double CubicSpline::operator()(double x) const {
  const std::size_t i = segment_of(x);
  const double h = x_[i + 1] - x_[i];
  const double t = x - x_[i];
  const double u = x_[i + 1] - x;
  // Standard natural-spline segment form.
  return m_[i] * u * u * u / (6.0 * h) + m_[i + 1] * t * t * t / (6.0 * h) +
         (y_[i] / h - m_[i] * h / 6.0) * u + (y_[i + 1] / h - m_[i + 1] * h / 6.0) * t;
}

}  // namespace chronos::mathx
