// Physical and numerical constants shared across the library.
#pragma once

namespace chronos::mathx {

/// Speed of light in vacuum [m/s]. Chronos converts time-of-flight to
/// distance with d = c * tau; indoor propagation through air differs from
/// vacuum by < 0.03%, far below the system's error floor.
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// pi to double precision.
inline constexpr double kPi = 3.14159265358979323846;

/// 2*pi, the phase accumulated over one full cycle.
inline constexpr double kTwoPi = 2.0 * kPi;

/// Convert a one-way propagation time [s] to distance [m].
constexpr double tof_to_distance(double tof_s) { return tof_s * kSpeedOfLight; }

/// Convert a distance [m] to one-way propagation time [s].
constexpr double distance_to_tof(double meters) { return meters / kSpeedOfLight; }

}  // namespace chronos::mathx
