#include "core/profile.hpp"

#include <algorithm>
#include <cmath>

#include "mathx/contracts.hpp"

namespace chronos::core {

MultipathProfile extract_profile(const SparseSolveResult& solution) {
  CHRONOS_EXPECTS(!solution.coefficients.empty(), "empty sparse solution");

  MultipathProfile profile;
  profile.grid = solution.grid;
  profile.magnitudes.resize(solution.coefficients.size());
  double max_mag = 0.0;
  for (std::size_t i = 0; i < solution.coefficients.size(); ++i) {
    profile.magnitudes[i] = std::abs(solution.coefficients[i]);
    max_mag = std::max(max_mag, profile.magnitudes[i]);
  }
  if (max_mag <= 0.0) return profile;  // silent profile, no peaks

  const double floor = max_mag * kProfileNoiseFloorFraction;
  const auto merge_bins = static_cast<std::size_t>(
      std::max(1.0, kProfileMergeGapS / solution.grid.step_s));

  // Scan for clusters of active bins, merging clusters separated by fewer
  // than merge_bins silent bins.
  std::vector<ProfilePeak> peaks;
  std::size_t i = 0;
  const std::size_t m = profile.magnitudes.size();
  while (i < m) {
    if (profile.magnitudes[i] <= floor) {
      ++i;
      continue;
    }
    ProfilePeak peak;
    peak.first_bin = i;
    double weighted_delay = 0.0;
    std::size_t silent_run = 0;
    std::size_t j = i;
    for (; j < m; ++j) {
      if (profile.magnitudes[j] > floor) {
        silent_run = 0;
        peak.last_bin = j;
        peak.energy += profile.magnitudes[j];
        weighted_delay += profile.magnitudes[j] * profile.grid.delay_at(j);
        peak.amplitude = std::max(peak.amplitude, profile.magnitudes[j]);
      } else {
        if (++silent_run >= merge_bins) break;
      }
    }
    peak.delay_s = weighted_delay / peak.energy;
    peaks.push_back(peak);
    i = j + 1;
  }

  profile.peaks = std::move(peaks);
  return profile;
}

std::optional<ProfilePeak> first_peak(const MultipathProfile& profile,
                                      double relative_threshold) {
  CHRONOS_EXPECTS(relative_threshold > 0.0 && relative_threshold <= 1.0,
                  "relative threshold must be in (0,1]");
  if (profile.peaks.empty()) return std::nullopt;
  double strongest = 0.0;
  for (const auto& p : profile.peaks) strongest = std::max(strongest, p.amplitude);
  for (const auto& p : profile.peaks) {
    if (p.amplitude >= relative_threshold * strongest) return p;
  }
  return std::nullopt;
}

std::size_t dominant_peak_count(const MultipathProfile& profile,
                                double relative_threshold) {
  CHRONOS_EXPECTS(relative_threshold > 0.0 && relative_threshold <= 1.0,
                  "relative threshold must be in (0,1]");
  double strongest = 0.0;
  for (const auto& p : profile.peaks) strongest = std::max(strongest, p.amplitude);
  std::size_t count = 0;
  for (const auto& p : profile.peaks) {
    if (p.amplitude >= relative_threshold * strongest) ++count;
  }
  return count;
}

}  // namespace chronos::core
