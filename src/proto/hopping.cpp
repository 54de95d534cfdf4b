#include "proto/hopping.hpp"

#include "mathx/contracts.hpp"

namespace chronos::proto {

namespace {
/// Retransmission timeout for control/ACK exchanges.
constexpr double kRetransmitTimeoutS = 1.2e-3;
/// Both devices revert to the default band after this much silence.
constexpr double kFailsafeTimeoutS = 20e-3;
}  // namespace

SweepStats simulate_sweep(const HoppingConfig& config, mathx::Rng& rng) {
  CHRONOS_EXPECTS(config.dwell_time_s > 0.0, "dwell time must be positive");
  CHRONOS_EXPECTS(config.loss_probability >= 0.0 &&
                      config.loss_probability < 1.0,
                  "loss probability outside [0,1)");

  const std::vector<phy::WifiBand>& bands =
      config.bands.empty() ? phy::us_band_plan() : config.bands;

  SweepStats stats;
  double t = 0.0;

  for (std::size_t bi = 0; bi < bands.size(); ++bi) {
    // Dwell: CSI exchanges happen inside this window.
    t += config.dwell_time_s;
    ++stats.bands_visited;

    if (bi + 1 == bands.size()) break;  // last band: sweep complete

    // Hop negotiation: control packet -> ACK, with retransmissions.
    bool hopped = false;
    for (int attempt = 0; attempt <= config.max_retries; ++attempt) {
      ++stats.control_packets;
      if (attempt > 0) ++stats.retransmissions;

      const bool control_lost = rng.bernoulli(config.loss_probability);
      const bool ack_lost = rng.bernoulli(config.loss_probability);
      if (!control_lost && !ack_lost) {
        t += 2.0 * kPacketTimeS;  // control + ACK on the air
        hopped = true;
        break;
      }
      // Timeout waiting for the ACK before retrying.
      t += kRetransmitTimeoutS;
    }

    if (!hopped) {
      // Fail-safe: both sides fall back to the default band after the
      // silence timeout, then the sweep resumes from the next band (the
      // devices re-synchronise on the default band).
      t += kFailsafeTimeoutS;
      ++stats.failsafe_resets;
    }

    t += kRetuneTimeS;
  }

  stats.total_time_s = t;
  stats.completed = true;
  return stats;
}

std::vector<double> sweep_time_distribution(const HoppingConfig& config,
                                            std::size_t trials,
                                            mathx::Rng& rng) {
  CHRONOS_EXPECTS(trials > 0, "need at least one trial");
  std::vector<double> out;
  out.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    out.push_back(simulate_sweep(config, rng).total_time_s);
  }
  return out;
}

}  // namespace chronos::proto
