// Position from noisy range measurements.
//
// Given distances d_i from known anchor points a_i (the receive antennas),
// find x minimising sum_i (||x - a_i|| - d_i)^2 — the least-squares
// formulation the paper cites in §8. Solved by Gauss-Newton with multiple
// deterministic restarts seeded from pairwise circle intersections so the
// nonconvex objective converges to the global basin.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geom/circle.hpp"
#include "geom/vec2.hpp"

namespace chronos::geom {

struct RangeMeasurement {
  Vec2 anchor;
  double range = 0.0;
};

struct TrilaterationResult {
  Vec2 position;
  double residual_rms = 0.0;  ///< RMS of (||x-a_i|| - d_i) at the solution
  int iterations = 0;
  bool converged = false;
};

/// Least-squares position estimate from >= 2 ranges. With exactly two
/// anchors the problem has two symmetric minima; this returns the one on the
/// positive side of the anchor baseline (callers disambiguate per §8 via a
/// third antenna or mobility — see `solve_both_sides`).
TrilaterationResult trilaterate(std::span<const RangeMeasurement> ranges);

/// Returns both mirror-image solutions for the two-anchor case.
std::pair<TrilaterationResult, TrilaterationResult> solve_both_sides(
    const RangeMeasurement& a, const RangeMeasurement& b);

/// Damped Gauss-Newton refinement from an explicit initial guess (at most
/// 60 steps, each clamped to 3 m; stops once a step is below 1e-9 m).
TrilaterationResult refine(std::span<const RangeMeasurement> ranges,
                           Vec2 initial_guess);

}  // namespace chronos::geom
