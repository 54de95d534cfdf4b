#include "core/combining.hpp"

#include <cmath>
#include <utility>

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

}  // namespace

int quadrant_exponent(const phy::WifiBand& band,
                      const CombiningConfig& config) {
  return config.quirk_fix ? phy::per_direction_exponent(band) : 1;
}

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
    const int exponent = quadrant_exponent(band, config);
    // One direction of a capture, read once: its zero-subcarrier value
    // (over the capture's RMS subcarrier magnitude under the band AGC)
    // raised to the exponent, and its ToA slope.
    auto read = [&](const phy::CsiMeasurement& m) {
      const InterpolationResult interp = interpolate_to_center(m);
      std::complex<double> value = interp.zero_subcarrier;
      if (config.normalization == Normalization::kBandAgc) {
        value /= std::sqrt(m.energy() / static_cast<double>(m.values.size()));
      }
      return std::pair{integer_power(value, exponent), interp.toa_slope_s};
    };

    std::complex<double> acc{0.0, 0.0};
    double fwd_toa_acc = 0.0;
    double rev_toa_acc = 0.0;
    double snr_acc = 0.0;
    for (const auto& cap : captures) {
      const auto [fwd, fwd_slope] = read(cap.forward);
      const auto [rev, rev_slope] = read(cap.reverse);
      fwd_toa_acc += fwd_slope;
      rev_toa_acc += rev_slope;
      snr_acc += cap.forward.snr_db;
      acc += config.two_way ? fwd * rev : fwd;
    }
    const auto n = static_cast<double>(captures.size());

    CombinedBand cb;
    cb.band = band;
    cb.value = acc / n;
    cb.row_freq_hz = static_cast<double>(exponent) * band.center_freq_hz;
    cb.snr_db = snr_acc / n;
    cb.toa_slope_s = fwd_toa_acc / n;
    cb.reverse_toa_slope_s = rev_toa_acc / n;

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
