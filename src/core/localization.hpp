// Device-to-device localization from per-antenna distances (paper §8, §12.2).
//
// Chronos ranges the single-antenna transmitter against each antenna of the
// receiver, multiplies by the speed of light, and intersects the resulting
// circles. Before trilaterating it rejects outlier distances that violate
// the receiver's known antenna geometry: by the triangle inequality, two
// distances measured from anchors s metres apart can differ by at most
// s (plus measurement slack).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geom/vec2.hpp"

namespace chronos::core {

struct LocalizationResult {
  geom::Vec2 position;
  double residual_rms_m = 0.0;
  /// Which input distances survived outlier rejection.
  std::vector<bool> used;
  std::size_t used_count = 0;
  bool valid = false;
};

/// Flags distances inconsistent with the anchor geometry. Iteratively drops
/// the measurement implicated in the largest total violation until the set
/// is self-consistent (or only two remain).
std::vector<bool> reject_outliers(std::span<const geom::Vec2> anchors,
                                  std::span<const double> distances,
                                  double slack_m);

/// Localizes a transmitter from distances to known anchor positions.
/// Outliers are rejected with 0.35 m of slack on the geometric bound.
/// When the surviving anchors lie on one line (two anchors, or more on one
/// baseline, such as two of a laptop's three antennas) the two mirror
/// images fit equally well; the ambiguity is resolved toward `hint` if
/// provided (paper §8's mobility strategy), else the solution on the
/// positive cross side of the baseline from the first surviving anchor to
/// the first other one is returned.
LocalizationResult localize(std::span<const geom::Vec2> anchors,
                            std::span<const double> distances,
                            const std::optional<geom::Vec2>& hint = std::nullopt);

}  // namespace chronos::core
