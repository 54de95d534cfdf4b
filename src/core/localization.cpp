#include "core/localization.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "geom/image_source.hpp"
#include "geom/trilateration.hpp"
#include "mathx/contracts.hpp"

namespace chronos::core {

namespace {

/// Extra slack [m] allowed on top of the geometric bound when checking
/// pairwise consistency of distance estimates.
constexpr double kGeometrySlackM = 0.35;

/// Largest |sin| of the angle between an anchor's offset from the first
/// anchor and the baseline at which the anchors still count as collinear.
constexpr double kCollinearSin = 1e-9;

/// True when every anchor of `ranges` lies on the line through the first
/// anchor and the first other anchor distinct from it, and sets `axis` to
/// that baseline. The two mirror images of any position across that line
/// then fit every range equally well, so the residual cannot pick a side.
/// False when the anchors span the plane or all coincide.
bool mirror_symmetric(std::span<const geom::RangeMeasurement> ranges,
                      geom::Vec2& axis) {
  const geom::Vec2 origin = ranges.front().anchor;
  axis = {};
  for (const auto& r : ranges) {
    const geom::Vec2 rel = r.anchor - origin;
    if (axis.norm_sq() == 0.0) {
      axis = rel;
    } else if (std::abs(axis.cross(rel)) >
               kCollinearSin * axis.norm() * rel.norm()) {
      return false;
    }
  }
  return axis.norm_sq() > 0.0;
}

}  // namespace

std::vector<bool> reject_outliers(std::span<const geom::Vec2> anchors,
                                  std::span<const double> distances,
                                  double slack_m) {
  CHRONOS_EXPECTS(anchors.size() == distances.size(),
                  "anchors/distances size mismatch");
  CHRONOS_EXPECTS(slack_m >= 0.0, "slack must be non-negative");
  const std::size_t n = anchors.size();
  std::vector<bool> used(n, true);

  auto violation = [&](std::size_t i, std::size_t j) {
    // |d_i - d_j| must not exceed the anchor separation (+ slack).
    const double sep = geom::distance(anchors[i], anchors[j]);
    const double diff = std::abs(distances[i] - distances[j]);
    return std::max(0.0, diff - sep - slack_m);
  };

  while (true) {
    std::size_t active = 0;
    for (bool u : used) active += u ? 1 : 0;
    if (active <= 2) break;

    // Total violation charged to each active measurement.
    std::vector<double> charge(n, 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!used[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!used[j]) continue;
        const double v = violation(i, j);
        charge[i] += v;
        charge[j] += v;
        total += v;
      }
    }
    if (total <= 0.0) break;  // geometry-consistent

    const auto worst = static_cast<std::size_t>(std::distance(
        charge.begin(), std::max_element(charge.begin(), charge.end())));
    used[worst] = false;
  }
  return used;
}

LocalizationResult localize(std::span<const geom::Vec2> anchors,
                            std::span<const double> distances,
                            const std::optional<geom::Vec2>& hint) {
  CHRONOS_EXPECTS(anchors.size() == distances.size() && anchors.size() >= 2,
                  "localization needs at least two anchor distances");
  for (double d : distances)
    CHRONOS_EXPECTS(d >= 0.0, "distances must be non-negative");

  LocalizationResult out;
  out.used = reject_outliers(anchors, distances, kGeometrySlackM);

  std::vector<geom::RangeMeasurement> ranges;
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    if (out.used[i]) ranges.push_back({anchors[i], distances[i]});
  }
  out.used_count = ranges.size();

  geom::Vec2 axis;
  if (ranges.size() >= 3 && !mirror_symmetric(ranges, axis)) {
    const auto fit = geom::trilaterate(ranges);
    out.position = fit.position;
    out.residual_rms_m = fit.residual_rms;
    out.valid = true;
    return out;
  }

  // Two anchors, or survivors on one line (e.g. every range to one of a
  // laptop's three antennas rejected): the residual has two mirror minima
  // that tie up to rounding, so a rule picks the side, not the residual.
  // Disambiguate with the hint (§8), else take the positive side.
  std::pair<geom::TrilaterationResult, geom::TrilaterationResult> both;
  if (ranges.size() == 2) {
    both = geom::solve_both_sides(ranges[0], ranges[1]);
    axis = ranges[1].anchor - ranges[0].anchor;
  } else {
    const auto fit = geom::trilaterate(ranges);
    const geom::Wall baseline{ranges[0].anchor, ranges[0].anchor + axis};
    both = {fit, geom::refine(ranges, geom::mirror_across(baseline,
                                                          fit.position))};
  }
  const auto& a = both.first;
  const auto& b = both.second;
  if (hint) {
    const double da = geom::distance(a.position, *hint);
    const double db = geom::distance(b.position, *hint);
    const auto& pick = (da <= db) ? a : b;
    out.position = pick.position;
    out.residual_rms_m = pick.residual_rms;
  } else {
    // Deterministic default: the solution on the positive cross side of
    // the anchor baseline.
    const double cross_a = axis.cross(a.position - ranges[0].anchor);
    const auto& pick = (cross_a >= 0.0) ? a : b;
    out.position = pick.position;
    out.residual_rms_m = pick.residual_rms;
  }
  out.valid = true;
  return out;
}

}  // namespace chronos::core
