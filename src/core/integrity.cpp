#include "core/integrity.hpp"

#include <cmath>
#include <cstddef>
#include <string>

#include "mathx/contracts.hpp"

namespace chronos::core {

namespace {

[[nodiscard]] chronos::Status violation(const std::string& message) {
  return {chronos::StatusCode::kIntegrityViolation, message};
}

}  // namespace

[[nodiscard]] chronos::Status screen_sweep(const phy::SweepMeasurement& sweep,
                             std::span<const phy::WifiBand> plan,
                             const IntegrityConfig& config) {
  if (chronos::Status shape = phy::check_sweep(sweep); !shape.ok()) {
    return shape;
  }
  if (sweep.bands.size() != plan.size()) {
    return {chronos::StatusCode::kMalformedSweep,
            "sweep covers " + std::to_string(sweep.bands.size()) +
                " bands; the pipeline's plan has " +
                std::to_string(plan.size()) +
                " (truncated or mis-split exchange)"};
  }
  // Right count, wrong band: a lie about band identity, not damage.
  if (chronos::Status identity = phy::check_plan(sweep, plan); !identity.ok()) {
    return violation(identity.message() +
                     " (band-plan lie or cross-deployment sweep)");
  }
  if (!config.all_checks) return chronos::Status::Ok();

  // Freshness, in the one pass that also sums the SNR of every
  // forward/reverse measurement for the floor below.
  double snr_acc = 0.0;
  std::size_t measurements = 0;
  for (std::size_t i = 0; i < sweep.bands.size(); ++i) {
    for (const auto& cap : sweep.bands[i]) {
      for (const double ts :
           {cap.forward.timestamp_s, cap.reverse.timestamp_s}) {
        if (ts < kMinTimestampS || ts > kMaxSweepAgeS) {
          return violation("band " + std::to_string(i) +
                           " capture timestamp " + std::to_string(ts) +
                           " s is outside the freshness window (replayed "
                           "or clock-skewed sweep)");
        }
      }
      snr_acc += cap.forward.snr_db + cap.reverse.snr_db;
      measurements += 2;
    }
  }

  // SNR floor: the mean per-measurement SNR (check_sweep guarantees one).
  const double mean_snr = snr_acc / static_cast<double>(measurements);
  if (mean_snr < kMinMeanSnrDb) {
    return violation("mean sweep SNR " + std::to_string(mean_snr) +
                     " dB is below the " + std::to_string(kMinMeanSnrDb) +
                     " dB floor (interference-saturated link)");
  }
  return chronos::Status::Ok();
}

[[nodiscard]] chronos::Status check_slope_symmetry(
    const phy::SweepMeasurement& sweep, std::span<const CombinedBand> combined) {
  CHRONOS_EXPECTS(combined.size() == sweep.bands.size(),
                  "one combined band per sweep band");
  // A spoofed delay offset multiplies one direction of the exchange by
  // e^{-j 2 pi f delta}: its forward ToA slope gains the full delta while
  // the reverse slope is untouched. Honest sweeps see the same channel in
  // both directions, so after averaging over every capture the two means
  // differ only by detection-delay jitter (~sigma/sqrt(n_captures)).
  double fwd_acc = 0.0;
  double rev_acc = 0.0;
  double n = 0.0;
  for (std::size_t b = 0; b < combined.size(); ++b) {
    const auto captures = static_cast<double>(sweep.bands[b].size());
    fwd_acc += captures * combined[b].toa_slope_s;
    rev_acc += captures * combined[b].reverse_toa_slope_s;
    n += captures;
  }
  const double asymmetry = std::abs(fwd_acc - rev_acc) / n;
  if (asymmetry > kMaxSlopeAsymmetryS) {
    return violation(
        "forward/reverse ToA slopes disagree by " +
        std::to_string(asymmetry * 1e9) +
        " ns (spoofed delay offset on one direction of the exchange)");
  }
  return chronos::Status::Ok();
}

}  // namespace chronos::core
