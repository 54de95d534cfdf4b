// Zero-subcarrier channel recovery (paper §5).
//
// Packet detection delay delta rotates the measured channel on subcarrier k
// by -2*pi*(f_{i,k} - f_{i,0})*delta — zero at the band center. Wi-Fi sends
// nothing on the center (DC) subcarrier, so Chronos unwraps the measured
// phase across the 30 reported subcarriers and interpolates phase and
// magnitude to the center with cubic splines, recovering a channel value
// free of detection delay.
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

/// Interpolates one CSI measurement to its zero subcarrier. Every
/// measurement carries the 30 reported subcarriers by type, so there is no
/// arity to reject.
InterpolationResult interpolate_to_center(const phy::CsiMeasurement& m);

/// The ToA slope alone: interpolate_to_center(m).toa_slope_s bit for bit
/// (the same unwrap and least-squares fit), without the two zero-subcarrier
/// splines. For callers that read only the slope, like the hostile screen's
/// direction-symmetry check.
double toa_slope(const phy::CsiMeasurement& m);

}  // namespace chronos::core
