// Circle primitives and circle-circle intersection.
//
// Chronos localizes a transmitter by intersecting distance circles centred
// on each receive antenna (paper §8): two antennas give two candidate
// positions; a third antenna (or mobility) disambiguates.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"

namespace chronos::geom {

struct Circle {
  Vec2 center;
  double radius = 0.0;
};

/// Result of intersecting two circles.
struct CircleIntersection {
  /// 0, 1, or 2 intersection points. Tangent circles report one point;
  /// coincident circles report none (degenerate — infinitely many).
  std::vector<Vec2> points;
  /// True when the circles do not touch; `closest_approach` then holds the
  /// point minimising the sum of squared distances to both circles, which
  /// the localizer uses as a noise-tolerant fallback.
  bool disjoint = false;
  std::optional<Vec2> closest_approach;
};

/// Intersects two circles, tolerating small numerical gaps: circles whose
/// gap is below `tol` are treated as tangent.
CircleIntersection intersect(const Circle& a, const Circle& b,
                             double tol = 1e-9);

}  // namespace chronos::geom
