#include "phy/csi.hpp"

#include <cmath>
#include <string>

#include "mathx/contracts.hpp"

namespace chronos::phy {

namespace {
// 802.11n Ng=2 grouping as reported by the Intel 5300 for HT20.
constexpr std::array<int, kIntel5300Subcarriers> kIndices = {
    -28, -26, -24, -22, -20, -18, -16, -14, -12, -10, -8, -6, -4, -2, -1,
    1,   3,   5,   7,   9,   11,  13,  15,  17,  19,  21, 23, 25, 27, 28};
constexpr double kSubcarrierSpacingHz = 312.5e3;

[[nodiscard]] chronos::Status malformed(std::size_t band,
                                        const std::string& defect) {
  return {chronos::StatusCode::kMalformedSweep,
          "band " + std::to_string(band) + ' ' + defect};
}
}  // namespace

std::span<const int> intel5300_subcarrier_indices() { return kIndices; }

double subcarrier_offset_hz(int index) {
  return static_cast<double>(index) * kSubcarrierSpacingHz;
}

double CsiMeasurement::frequency_at(std::size_t k) const {
  CHRONOS_EXPECTS(k < values.size(), "subcarrier index out of range");
  return band.center_freq_hz + subcarrier_offset_hz(kIndices[k]);
}

double CsiMeasurement::energy() const {
  double acc = 0.0;
  for (const auto& v : values) acc += std::norm(v);
  return acc;
}

[[nodiscard]] chronos::Status check_sweep(const SweepMeasurement& sweep) {
  if (sweep.bands.empty()) {
    return {chronos::StatusCode::kMalformedSweep, "sweep contains no bands"};
  }
  for (std::size_t i = 0; i < sweep.bands.size(); ++i) {
    const auto& captures = sweep.bands[i];
    if (captures.empty()) return malformed(i, "carries no captures");
    const WifiBand& band = captures.front().forward.band;
    for (const auto& cap : captures) {
      if (cap.forward.band != band || cap.reverse.band != band) {
        return malformed(i, "mixes captures of different bands");
      }
      // The band AGC divides each direction by its RMS, which needs a
      // finite, positive energy. A non-finite timestamp or SNR passes every
      // bound comparison of the integrity screen and turns the ToA gate's
      // SNR compensation into NaN, which opens the gate to the whole grid.
      for (const CsiMeasurement* m : {&cap.forward, &cap.reverse}) {
        const double energy = m->energy();
        if (!(std::isfinite(energy) && energy > 0.0)) {
          return malformed(i,
                           "capture carries no finite CSI energy (all-zero "
                           "or non-finite values)");
        }
        if (!std::isfinite(m->timestamp_s) || !std::isfinite(m->snr_db)) {
          return malformed(i, "capture timestamp/SNR must be finite");
        }
      }
    }
  }
  return chronos::Status::Ok();
}

[[nodiscard]] chronos::Status check_plan(const SweepMeasurement& sweep,
                                         std::span<const WifiBand> plan) {
  if (sweep.bands.size() != plan.size()) {
    return {chronos::StatusCode::kBandMismatch,
            "sweep covers " + std::to_string(sweep.bands.size()) +
                " bands; the plan has " + std::to_string(plan.size())};
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    // The whole band, not just the channel number: a converter with a
    // wrong frequency map must not pass as a silently wrong phase-to-delay
    // mapping downstream.
    const WifiBand& band = sweep.bands[i].front().forward.band;
    if (band != plan[i]) {
      return {chronos::StatusCode::kBandMismatch,
              "sweep band " + std::to_string(i) + " is channel " +
                  std::to_string(band.channel) + " at " +
                  std::to_string(band.center_freq_hz / 1e6) +
                  " MHz; the plan expects channel " +
                  std::to_string(plan[i].channel) + " at " +
                  std::to_string(plan[i].center_freq_hz / 1e6) + " MHz"};
    }
  }
  return chronos::Status::Ok();
}

}  // namespace chronos::phy
