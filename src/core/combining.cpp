#include "core/combining.hpp"

#include <cmath>

#include "core/subcarrier_interp.hpp"
#include "mathx/contracts.hpp"
#include "phy/intel5300.hpp"

namespace chronos::core {

namespace {

std::complex<double> integer_power(std::complex<double> z, int n) {
  std::complex<double> acc{1.0, 0.0};
  for (int i = 0; i < n; ++i) acc *= z;
  return acc;
}

/// RMS magnitude of a CSI measurement's 30 subcarrier values.
double band_rms(const phy::CsiMeasurement& m) {
  double acc = 0.0;
  for (const auto& v : m.values) acc += std::norm(v);
  return std::sqrt(acc / static_cast<double>(m.values.size()));
}

}  // namespace

double delay_axis_scale(const CombiningConfig& config) {
  return config.two_way ? 2.0 : 1.0;
}

std::vector<CombinedBand> combine_sweep(const phy::SweepMeasurement& sweep,
                                        const CombiningConfig& config,
                                        const CalibrationTable& calibration) {
  const chronos::Status shape = phy::check_sweep(sweep);
  CHRONOS_EXPECTS(shape.ok(), shape.message());
  CHRONOS_EXPECTS(
      calibration.empty() || calibration.correction.size() == sweep.bands.size(),
      "calibration table size must match the sweep's band count");

  std::vector<CombinedBand> out;
  out.reserve(sweep.bands.size());

  for (std::size_t bi = 0; bi < sweep.bands.size(); ++bi) {
    const auto& captures = sweep.bands[bi];
    const phy::WifiBand& band = captures.front().forward.band;

    // Per-direction exponent: 4 on 2.4 GHz when fixing the quadrant quirk.
    const int exponent =
        config.quirk_fix ? phy::per_direction_exponent(band) : 1;

    std::complex<double> acc{0.0, 0.0};
    double toa_acc = 0.0;
    double snr_acc = 0.0;
    for (const auto& cap : captures) {
      const auto fwd = interpolate_to_center(cap.forward);
      toa_acc += fwd.toa_slope_s;
      snr_acc += cap.forward.snr_db;

      std::complex<double> fwd_val = fwd.zero_subcarrier;
      if (config.normalization == Normalization::kBandAgc) {
        fwd_val /= band_rms(cap.forward);
      }
      std::complex<double> combined = integer_power(fwd_val, exponent);
      if (config.two_way) {
        const auto rev = interpolate_to_center(cap.reverse);
        std::complex<double> rev_val = rev.zero_subcarrier;
        if (config.normalization == Normalization::kBandAgc) {
          rev_val /= band_rms(cap.reverse);
        }
        combined *= integer_power(rev_val, exponent);
      }
      acc += combined;
    }
    const auto n = static_cast<double>(captures.size());

    CombinedBand cb;
    cb.band = band;
    cb.value = acc / n;
    cb.direction_exponent = exponent;
    cb.row_freq_hz = static_cast<double>(exponent) * band.center_freq_hz;
    cb.snr_db = snr_acc / n;
    cb.toa_slope_s = toa_acc / n;

    if (!calibration.empty()) cb.value *= calibration.correction[bi];
    const double mag = std::abs(cb.value);
    if (config.normalization == Normalization::kBandAgc &&
        mag > kBandAgcMagnitudeCap) {
      cb.value *= kBandAgcMagnitudeCap / mag;
    }
    out.push_back(cb);
  }
  return out;
}

}  // namespace chronos::core
