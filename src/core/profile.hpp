// Multipath profiles and direct-path (first peak) extraction (paper §6).
//
// The sparse inverse-NDFT yields complex coefficients over the delay grid;
// L1 solutions concentrate each physical path into a small cluster of
// adjacent non-zero bins. This module groups bins into peaks, computes each
// peak's amplitude-weighted centroid delay, and identifies the direct path:
// the *earliest* peak whose amplitude is a meaningful fraction of the
// strongest peak (the shortest path need not be the strongest — in NLOS it
// rarely is).
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/ndft.hpp"

namespace chronos::core {

struct ProfilePeak {
  double delay_s = 0.0;    ///< amplitude-weighted centroid of the cluster
  double amplitude = 0.0;  ///< peak |p| within the cluster
  double energy = 0.0;     ///< sum of |p| across the cluster
  std::size_t first_bin = 0;
  std::size_t last_bin = 0;
};

struct MultipathProfile {
  DelayGrid grid;
  std::vector<double> magnitudes;   ///< |p| per grid bin
  std::vector<ProfilePeak> peaks;   ///< sorted by delay
};

/// Bins whose magnitude is at or below this fraction of the global maximum
/// are treated as silence when clustering.
inline constexpr double kProfileNoiseFloorFraction = 0.05;
/// Two clusters closer than this gap merge into one peak — L1 often splits
/// one physical path across neighbouring bins. In bins: the gap over the
/// grid step, truncated, and at least 1 (a run of that many silent bins
/// ends a cluster).
inline constexpr double kProfileMergeGapS = 0.6e-9;

/// Clusters a sparse solution into a peak list.
MultipathProfile extract_profile(const SparseSolveResult& solution);

/// The direct path: earliest peak with amplitude >= threshold * strongest
/// peak amplitude. Returns nullopt for an empty profile.
std::optional<ProfilePeak> first_peak(const MultipathProfile& profile,
                                      double relative_threshold = 0.2);

/// Number of dominant peaks (amplitude >= threshold * strongest); the
/// paper's sparsity metric (Fig 7b reports mean 5.05, sigma 1.95 in NLOS).
std::size_t dominant_peak_count(const MultipathProfile& profile,
                                double relative_threshold = 0.2);

}  // namespace chronos::core
