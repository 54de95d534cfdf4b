#include "geom/circle.hpp"

#include <cmath>

#include "mathx/contracts.hpp"

namespace chronos::geom {

CircleIntersection intersect(const Circle& a, const Circle& b, double tol) {
  CHRONOS_EXPECTS(a.radius >= 0.0 && b.radius >= 0.0,
                  "circle radii must be non-negative");
  CircleIntersection out;

  const Vec2 delta = b.center - a.center;
  const double d = delta.norm();

  if (d < tol && std::abs(a.radius - b.radius) < tol) {
    // Coincident circles: degenerate, report empty.
    return out;
  }

  const double r_sum = a.radius + b.radius;
  const double r_diff = std::abs(a.radius - b.radius);

  if (d > r_sum + tol || d < r_diff - tol) {
    // Separated or nested without touching: report the closest approach —
    // the midpoint of the shortest segment between the two boundaries.
    out.disjoint = true;
    const Vec2 dir = d > 0.0 ? delta / d : Vec2{1.0, 0.0};
    const Vec2 on_a = a.center + dir * a.radius;
    const Vec2 on_b = d > r_sum ? b.center - dir * b.radius
                                : b.center + dir * b.radius;
    out.closest_approach = (on_a + on_b) * 0.5;
    return out;
  }

  // Clamp into the feasible range to absorb numerical noise near tangency.
  const double d_eff = std::min(std::max(d, r_diff), r_sum);
  const double a_len =
      (d_eff * d_eff + a.radius * a.radius - b.radius * b.radius) /
      (2.0 * d_eff);
  const double h_sq = a.radius * a.radius - a_len * a_len;
  const double h = h_sq > 0.0 ? std::sqrt(h_sq) : 0.0;

  const Vec2 dir = delta / d_eff;
  const Vec2 mid = a.center + dir * a_len;
  const Vec2 perp{-dir.y, dir.x};

  if (h <= tol) {
    out.points.push_back(mid);
  } else {
    out.points.push_back(mid + perp * h);
    out.points.push_back(mid - perp * h);
  }
  return out;
}

}  // namespace chronos::geom
