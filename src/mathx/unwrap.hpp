// 1-D phase unwrapping.
//
// Wi-Fi CSI phase is reported modulo 2*pi per subcarrier; before Chronos can
// spline-interpolate phase to the zero subcarrier (paper §5) the wrapped
// sawtooth must be turned back into a continuous function of frequency.
#pragma once

#include <span>

namespace chronos::mathx {

/// Unwraps a sequence of phases (radians) into `out` (same size): whenever
/// the jump between consecutive samples exceeds `tolerance` (default pi), a
/// multiple of 2*pi is added to all following samples so the sequence
/// becomes continuous. Identical semantics to MATLAB/numpy `unwrap`.
/// Writes only `out`, so per-capture callers allocate nothing.
void unwrap(std::span<const double> phases, std::span<double> out,
            double tolerance = 3.14159265358979323846);

/// Wraps a single phase into (-pi, pi].
double wrap_to_pi(double phase);

/// Wraps a single phase into [0, period). Used by the CRT ranging math where
/// time-of-flight is known modulo 1/f_i.
double wrap_to_period(double value, double period);

}  // namespace chronos::mathx
