// Zero-subcarrier channel recovery (paper §5).
//
// Packet detection delay delta rotates the measured channel on subcarrier k
// by -2*pi*(f_{i,k} - f_{i,0})*delta — zero at the band center. Wi-Fi sends
// nothing on the center (DC) subcarrier, so Chronos unwraps the measured
// phase across the 30 reported subcarriers and interpolates phase and
// magnitude to the center with natural cubic splines, recovering a channel
// value free of detection delay.
//
// Every capture reports the same 30 subcarrier offsets, and a natural
// spline on fixed knots read at a fixed point is linear in its data: its
// value at offset 0 is sum_k w_k y_k with w_k the spline through the unit
// vector e_k read at 0. The 30 taps w_k are built once (mathx::CubicSpline
// at first use), so a capture costs one pass over fixed-size arrays and no
// heap allocation: phase_0 = sum_k w_k phi_k over the unwrapped phases,
// |h_0| = max(sum_k w_k |h_k|, 0) with |h_k| = sqrt(norm(h_k)). This equals
// the spline's own evaluation up to rounding.
//
// The same pass fits the ToA slope to the unwrapped phases. This is the
// one per-capture reduction of a range: combine_sweep (core/combining.hpp)
// calls it once on each direction of every capture, and everything else
// that reads a capture's slope (the ToA gate, the direction-symmetry
// check, calibration) reads combine's per-band means.
#pragma once

#include <complex>

#include "phy/csi.hpp"

namespace chronos::core {

struct InterpolationResult {
  /// The detection-delay-free channel at the band's center frequency.
  std::complex<double> zero_subcarrier;
  /// Time-of-arrival estimate from the phase slope across subcarriers:
  /// the unwrapped phase is -2*pi*(f_k - f_0)*(tau + delta) - 2*pi*f_k*tau
  /// whose slope over subcarrier offset gives tau + delta — i.e. ToF *plus*
  /// detection delay. The paper uses this to histogram detection delay
  /// (Fig 7c): delta ~= toa_slope_s - tof.
  double toa_slope_s = 0.0;
};

/// Interpolates one CSI measurement to its zero subcarrier and fits its
/// ToA slope. Every measurement carries the 30 reported subcarriers by
/// type, so there is no arity to reject. Allocates nothing (after the
/// first call builds the taps).
InterpolationResult interpolate_to_center(const phy::CsiMeasurement& m);

}  // namespace chronos::core
