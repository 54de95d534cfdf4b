#include "core/integrity.hpp"

#include <cmath>
#include <cstddef>
#include <string>

#include "core/subcarrier_interp.hpp"

namespace chronos::core {

namespace {

[[nodiscard]] chronos::Status violation(const std::string& message) {
  return {chronos::StatusCode::kIntegrityViolation, message};
}

/// Mean per-capture SNR across every forward/reverse measurement of the
/// sweep (the quantity kMinMeanSnrDb floors). 0 for an empty sweep.
double sweep_mean_snr_db(const phy::SweepMeasurement& sweep) {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& captures : sweep.bands) {
    for (const auto& cap : captures) {
      acc += cap.forward.snr_db + cap.reverse.snr_db;
      n += 2;
    }
  }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
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

  // Freshness.
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
    }
  }

  // Direction symmetry. A spoofed delay offset multiplies one direction of
  // the exchange by e^{-j 2 pi f delta}: its forward ToA slope gains the
  // full delta while the reverse slope is untouched. Honest sweeps see the
  // same channel in both directions, so after averaging over every capture
  // the two means differ only by detection-delay jitter
  // (~sigma/sqrt(n_captures)).
  double fwd_acc = 0.0;
  double rev_acc = 0.0;
  std::size_t n = 0;
  for (const auto& captures : sweep.bands) {
    for (const auto& cap : captures) {
      fwd_acc += toa_slope(cap.forward);
      rev_acc += toa_slope(cap.reverse);
      ++n;
    }
  }
  if (n > 0) {
    const double asymmetry =
        std::abs(fwd_acc - rev_acc) / static_cast<double>(n);
    if (asymmetry > kMaxSlopeAsymmetryS) {
      return violation(
          "forward/reverse ToA slopes disagree by " +
          std::to_string(asymmetry * 1e9) +
          " ns (spoofed delay offset on one direction of the exchange)");
    }
  }

  // SNR floor.
  const double mean_snr = sweep_mean_snr_db(sweep);
  if (mean_snr < kMinMeanSnrDb) {
    return violation("mean sweep SNR " + std::to_string(mean_snr) +
                     " dB is below the " + std::to_string(kMinMeanSnrDb) +
                     " dB floor (interference-saturated link)");
  }
  return chronos::Status::Ok();
}

}  // namespace chronos::core
