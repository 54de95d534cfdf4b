// Two-way CSI combining: CFO / LO-phase cancellation (paper §7) and the
// Intel 5300 2.4 GHz quadrant fix (§11 footnote 5).
//
// The forward CSI carries phase error  +(2*pi*df*t + phi_lo); the reverse
// CSI of the ACK carries the *negated* error (roles flip). Multiplying the
// interpolated zero-subcarrier values cancels both, leaving the squared
// channel h^2 whose profile's first peak sits at u = 2*tau.
//
// On 2.4 GHz the firmware reports phase only modulo pi/2, so each
// direction is raised to the 4th power *before* the product (4*(pi/2) = 2*pi
// erases the ambiguity); the combined value is then h^8 and its NDFT row
// must spin at 4*f_i on the u = 2*tau axis. quadrant_exponent decides the
// exponent once, for combine and for the solver's rows.
//
// combine_sweep reads each direction of every capture once (paper §5,
// core/subcarrier_interp.hpp) and keeps, per band, the mean ToA slope of
// each direction next to the combined value: the ToA gate reads the
// forward slopes, the direction-symmetry check both (core/integrity.hpp).
#pragma once

#include <complex>
#include <vector>

#include "phy/band_plan.hpp"
#include "phy/csi.hpp"

namespace chronos::core {

struct CombinedBand {
  phy::WifiBand band;
  /// Averaged combined channel value (h^2 at 5 GHz, h^8 at 2.4 GHz), after
  /// optional normalisation and calibration.
  std::complex<double> value;
  /// Frequency this band's NDFT row rotates at on the u = 2*tau axis:
  /// quadrant_exponent(band) * f_i (4*f_i on 2.4 GHz under the quirk fix).
  double row_freq_hz = 0.0;
  double snr_db = 0.0;
  /// Mean ToA slope (tof + detection delay) across forward captures [s];
  /// feeds the ToA gate and the Fig 7c detection-delay histogram.
  double toa_slope_s = 0.0;
  /// Mean ToA slope across reverse captures [s]; the direction-symmetry
  /// check compares it with toa_slope_s.
  double reverse_toa_slope_s = 0.0;
};

/// How per-band magnitudes are conditioned before the sparse inversion.
enum class Normalization {
  /// Keep raw magnitudes. Physically honest in simulation, but real CSI
  /// magnitudes are not comparable across bands (AGC, chain gains).
  kNone,
  /// Divide each direction's zero-subcarrier value by that capture's RMS
  /// subcarrier magnitude, sqrt(CsiMeasurement::energy() / 30) — what
  /// AGC-scaled CSI actually provides. A faded center subcarrier then
  /// carries naturally little weight while strong bands dominate, which is
  /// what keeps NLOS profiles clean. Default.
  kBandAgc,
};

struct CombiningConfig {
  /// Multiply forward and reverse measurements (the §7 trick). Turning this
  /// off keeps only the forward channel (exponent still applied) — used by
  /// the ablation bench to demonstrate why one-way stitching fails. Both
  /// directions are read either way; this decides only whether the reverse
  /// value multiplies in.
  bool two_way = true;
  /// Apply the h^4-per-direction quadrant fix on 2.4 GHz bands.
  bool quirk_fix = true;
  Normalization normalization = Normalization::kBandAgc;
};

/// Magnitude cap on each combined band under kBandAgc: the quadrant fix
/// raises 2.4 GHz values to the 8th power, which would let a constructive
/// band explode.
inline constexpr double kBandAgcMagnitudeCap = 2.0;

/// Per-band unit-modulus phase corrections that absorb the reciprocity
/// constant kappa and hardware group delays (§7 observation 2). Built once
/// against a known-distance measurement (see core/calibration.hpp); an
/// empty table is a no-op.
struct CalibrationTable {
  /// correction[i] multiplies the combined value of band i (in sweep band
  /// order). Must be empty or match the sweep's band count.
  std::vector<std::complex<double>> correction;

  /// Mean offset of the subcarrier-slope ToA against true time-of-flight,
  /// measured at calibration: dominated by the packet-detection pipeline
  /// latency. Ranging uses it to gate the direct-path search to a +-tens-
  /// of-ns window, which deterministically rejects the 50 ns lattice
  /// ghosts of the 20 MHz channel grid.
  double toa_bias_s = 0.0;
  bool has_toa_bias = false;
  /// SNR at which the calibration was captured. The mean detection delay is
  /// SNR-dependent (weak signals take longer to cross the energy
  /// threshold), so ranging compensates the gate center by the detection
  /// model's expected-delay difference between field and calibration SNR.
  double calibration_snr_db = 0.0;

  bool empty() const { return correction.empty(); }
};

/// The per-direction exponent combine_sweep applies on `band`: 4 on a
/// 2.4 GHz band under the quadrant fix (config.quirk_fix), else 1. A row
/// whose exponent is not 1 also weighs less in the solve (core/ranging.cpp).
int quadrant_exponent(const phy::WifiBand& band, const CombiningConfig& config);

/// Interpolates both directions of every capture to the zero subcarrier,
/// applies exponents, combines forward/reverse, averages captures, and
/// applies calibration. Returns one CombinedBand per band in sweep order.
/// Precondition: phy::check_sweep(sweep) passes.
std::vector<CombinedBand> combine_sweep(const phy::SweepMeasurement& sweep,
                                        const CombiningConfig& config = {},
                                        const CalibrationTable& calibration = {});

/// The scale factor between the profile's u axis and physical ToF:
/// u = scale * tau. 2 for two-way combining, 1 for one-way.
double delay_axis_scale(const CombiningConfig& config);

}  // namespace chronos::core
