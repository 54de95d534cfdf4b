#include "geom/trilateration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mathx/contracts.hpp"
#include "mathx/matrix.hpp"

namespace chronos::geom {

namespace {

constexpr int kMaxIterations = 60;
/// Step norm [m] below which iteration stops.
constexpr double kConvergenceTol = 1e-9;
/// Levenberg damping added to the normal equations; keeps the 2x2 solve
/// stable when anchors are nearly collinear (as on a 3-antenna laptop).
constexpr double kDamping = 1e-6;
/// Gauss-Newton steps are clamped to this length [m]: near-collinear anchor
/// geometry can otherwise launch the iterate hundreds of metres away.
constexpr double kMaxStepM = 3.0;

double residual_rms_at(std::span<const RangeMeasurement> ranges,
                       const Vec2& x) {
  double acc = 0.0;
  for (const auto& r : ranges) {
    const double e = distance(x, r.anchor) - r.range;
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(ranges.size()));
}

}  // namespace

TrilaterationResult refine(std::span<const RangeMeasurement> ranges,
                           Vec2 initial_guess) {
  CHRONOS_EXPECTS(ranges.size() >= 2, "refine needs at least two ranges");

  Vec2 x = initial_guess;
  TrilaterationResult result;

  for (int it = 0; it < kMaxIterations; ++it) {
    // Residuals r_i = ||x - a_i|| - d_i and Jacobian rows (x - a_i)/||x - a_i||.
    const std::size_t n = ranges.size();
    mathx::RealMatrix jt_j(2, 2);
    double jt_r[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 diff = x - ranges[i].anchor;
      double dist = diff.norm();
      Vec2 grad;
      if (dist < 1e-12) {
        // At an anchor the gradient is undefined; nudge deterministically.
        grad = {1.0, 0.0};
        dist = 1e-12;
      } else {
        grad = diff / dist;
      }
      const double res = dist - ranges[i].range;
      jt_j(0, 0) += grad.x * grad.x;
      jt_j(0, 1) += grad.x * grad.y;
      jt_j(1, 0) += grad.y * grad.x;
      jt_j(1, 1) += grad.y * grad.y;
      jt_r[0] += grad.x * res;
      jt_r[1] += grad.y * res;
    }
    jt_j(0, 0) += kDamping;
    jt_j(1, 1) += kDamping;

    const double det = jt_j(0, 0) * jt_j(1, 1) - jt_j(0, 1) * jt_j(1, 0);
    if (std::abs(det) < 1e-15) break;  // degenerate geometry; keep best so far
    Vec2 step{(jt_j(1, 1) * jt_r[0] - jt_j(0, 1) * jt_r[1]) / det,
              (jt_j(0, 0) * jt_r[1] - jt_j(1, 0) * jt_r[0]) / det};
    const double step_norm = step.norm();
    if (step_norm > kMaxStepM) {
      step = step * (kMaxStepM / step_norm);
    }

    x -= step;
    result.iterations = it + 1;
    if (step_norm < kConvergenceTol) {
      result.converged = true;
      break;
    }
  }

  result.position = x;
  result.residual_rms = residual_rms_at(ranges, x);
  return result;
}

TrilaterationResult trilaterate(std::span<const RangeMeasurement> ranges) {
  CHRONOS_EXPECTS(ranges.size() >= 2, "trilaterate needs at least two ranges");

  // Seed candidates from every pairwise circle intersection; refine each and
  // keep the lowest-residual solution. This is deterministic and immune to
  // the local minima a single centroid start can fall into.
  std::vector<Vec2> seeds;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      const Circle ci{ranges[i].anchor, ranges[i].range};
      const Circle cj{ranges[j].anchor, ranges[j].range};
      const auto isect = intersect(ci, cj);
      for (const Vec2& p : isect.points) seeds.push_back(p);
      if (isect.closest_approach) seeds.push_back(*isect.closest_approach);
    }
  }
  // Always include the anchor centroid as a fallback seed.
  Vec2 centroid;
  for (const auto& r : ranges) centroid += r.anchor;
  centroid = centroid / static_cast<double>(ranges.size());
  seeds.push_back(centroid + Vec2{0.1, 0.1});

  TrilaterationResult best;
  double best_rms = std::numeric_limits<double>::infinity();
  for (const Vec2& s : seeds) {
    const TrilaterationResult r = refine(ranges, s);
    if (r.residual_rms < best_rms) {
      best_rms = r.residual_rms;
      best = r;
    }
  }
  return best;
}

std::pair<TrilaterationResult, TrilaterationResult> solve_both_sides(
    const RangeMeasurement& a, const RangeMeasurement& b) {
  const RangeMeasurement pair_arr[2] = {a, b};
  const std::span<const RangeMeasurement> ranges(pair_arr, 2);

  const auto isect =
      intersect(Circle{a.anchor, a.range}, Circle{b.anchor, b.range});

  Vec2 seed_pos, seed_neg;
  if (isect.points.size() == 2) {
    seed_pos = isect.points[0];
    seed_neg = isect.points[1];
  } else {
    // Tangent or disjoint: mirror the single candidate across the baseline.
    const Vec2 p = !isect.points.empty() ? isect.points[0]
                                         : *isect.closest_approach;
    const Vec2 axis = (b.anchor - a.anchor).normalized();
    const Vec2 rel = p - a.anchor;
    const Vec2 mirrored =
        a.anchor + axis * rel.dot(axis) - (rel - axis * rel.dot(axis));
    seed_pos = p;
    seed_neg = mirrored;
  }

  return {refine(ranges, seed_pos), refine(ranges, seed_neg)};
}

}  // namespace chronos::geom
