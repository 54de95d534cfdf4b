#include "core/integrity.hpp"

#include <cmath>
#include <complex>
#include <cstddef>
#include <string>

#include "core/subcarrier_interp.hpp"

namespace chronos::core {

namespace {

[[nodiscard]] chronos::Status malformed(const std::string& message) {
  return {chronos::StatusCode::kMalformedSweep, message};
}

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
  const std::size_t n_subcarriers = phy::intel5300_subcarrier_indices().size();

  // Shape: mirrors phy::validate (so a screened sweep never throws in
  // combining) plus the plan-arity check the pipeline needs.
  if (sweep.bands.size() != plan.size()) {
    return malformed("sweep covers " + std::to_string(sweep.bands.size()) +
                     " bands; the pipeline's plan has " +
                     std::to_string(plan.size()) +
                     " (truncated or mis-split exchange)");
  }
  for (std::size_t i = 0; i < sweep.bands.size(); ++i) {
    if (sweep.bands[i].empty()) {
      return malformed("band " + std::to_string(i) + " carries no captures");
    }
    for (const auto& cap : sweep.bands[i]) {
      if (cap.forward.values.size() != n_subcarriers ||
          cap.reverse.values.size() != n_subcarriers) {
        return malformed("band " + std::to_string(i) +
                         " capture does not cover 30 subcarriers");
      }
      if (cap.forward.direction != phy::Direction::kForward ||
          cap.reverse.direction != phy::Direction::kReverse) {
        return malformed("band " + std::to_string(i) +
                         " capture directions are mislabelled");
      }
      // The band AGC divides each direction by its RMS, which needs a
      // finite, positive energy: an all-zero or non-finite capture would
      // fail that precondition inside combining. A non-finite timestamp or
      // SNR passes every bound comparison below and turns the ToA gate's
      // SNR compensation into NaN, which opens the gate to the whole grid.
      for (const phy::CsiMeasurement* m : {&cap.forward, &cap.reverse}) {
        double energy = 0.0;
        for (const auto& v : m->values) energy += std::norm(v);
        if (!(std::isfinite(energy) && energy > 0.0)) {
          return malformed("band " + std::to_string(i) +
                           " capture carries no finite CSI energy "
                           "(all-zero or non-finite values)");
        }
        if (!std::isfinite(m->timestamp_s) || !std::isfinite(m->snr_db)) {
          return malformed("band " + std::to_string(i) +
                           " capture timestamp/SNR must be finite");
        }
      }
      // Identity: the claimed band must BE the plan's band. A channel
      // number alone is forgeable only together with its center
      // frequency and group, so all three are pinned.
      const auto check_identity = [&](const phy::CsiMeasurement& m) {
        return m.band.channel == plan[i].channel &&
               m.band.center_freq_hz == plan[i].center_freq_hz &&
               m.band.group == plan[i].group;
      };
      if (!check_identity(cap.forward) || !check_identity(cap.reverse)) {
        return violation(
            "band " + std::to_string(i) + " claims channel " +
            std::to_string(cap.forward.band.channel) +
            " but the plan expects channel " +
            std::to_string(plan[i].channel) +
            " (band-plan lie or cross-deployment sweep)");
      }
    }
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
  // (~sigma/sqrt(n_captures)). The shape screen above guarantees every
  // capture has full arity.
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
