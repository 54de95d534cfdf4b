#include "core/calibration.hpp"

#include <cmath>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"

namespace chronos::core {

CalibrationTable calibrate_from_sweeps(
    const std::vector<phy::SweepMeasurement>& sweeps, double known_distance_m,
    const CombiningConfig& config) {
  CHRONOS_EXPECTS(!sweeps.empty(), "calibration needs at least one sweep");
  CHRONOS_EXPECTS(known_distance_m > 0.0, "known distance must be positive");

  const double tau = mathx::distance_to_tof(known_distance_m);
  const double u = delay_axis_scale(config) * tau;

  // Accumulate the measured (uncalibrated) combined phase per band across
  // sweeps, then rotate onto the ideal direct-path phase. Magnitude
  // conditioning is irrelevant here — only phases enter the table.
  // The same pass sums the ToA bias inputs: the mean subcarrier-slope ToA
  // across sweeps and bands, minus the known flight time, captures the
  // detection pipeline latency (and any other constant baseband lag) for
  // this device pair.
  CombiningConfig raw = config;
  raw.normalization = Normalization::kNone;

  std::vector<std::complex<double>> acc;
  std::vector<double> row_freq_hz;
  double toa_acc = 0.0;
  double snr_acc = 0.0;
  std::size_t toa_n = 0;
  for (const auto& sweep : sweeps) {
    const auto combined = combine_sweep(sweep, raw);
    if (acc.empty()) {
      acc.assign(combined.size(), {0.0, 0.0});
      for (const auto& cb : combined) row_freq_hz.push_back(cb.row_freq_hz);
    }
    CHRONOS_EXPECTS(acc.size() == combined.size(),
                    "calibration sweeps must cover identical bands");
    for (std::size_t i = 0; i < combined.size(); ++i) {
      // Normalise each sweep's contribution so high-magnitude sweeps don't
      // dominate the phase average.
      const double mag = std::abs(combined[i].value);
      if (mag > 0.0) acc[i] += combined[i].value / mag;
      toa_acc += combined[i].toa_slope_s;
      snr_acc += combined[i].snr_db;
      ++toa_n;
    }
  }

  // Expected ideal phase per band: -2*pi*row_freq*u.
  CalibrationTable table;
  table.correction.resize(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    CHRONOS_EXPECTS(std::abs(acc[i]) > 0.0,
                    "calibration measurement is zero on some band");
    const double measured_phase = std::arg(acc[i]);
    const double ideal_phase = -mathx::kTwoPi * row_freq_hz[i] * u;
    table.correction[i] = std::polar(1.0, ideal_phase - measured_phase);
  }

  table.toa_bias_s = toa_acc / static_cast<double>(toa_n) - tau;
  table.calibration_snr_db = snr_acc / static_cast<double>(toa_n);
  table.has_toa_bias = true;
  return table;
}

}  // namespace chronos::core
