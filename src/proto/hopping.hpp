// The transmitter-driven channel-hopping protocol (paper §4, §11, Fig 9a).
//
// Before leaving a band the transmitter sends a control packet advertising
// the next band; the receiver ACKs and retunes; the transmitter retunes on
// ACK receipt. Lost control packets or ACKs are retransmitted after a
// timeout; if a device hears nothing for the fail-safe timeout, both revert
// to the default band and the sweep restarts from there. The paper's
// implementation sweeps all 35 US bands in a median of 84 ms.
#pragma once

#include <cstddef>
#include <vector>

#include "mathx/rng.hpp"
#include "phy/band_plan.hpp"

namespace chronos::proto {

/// Air + processing time of a control packet or ACK.
inline constexpr double kPacketTimeS = 120e-6;
/// Retune time of the radio front-end after a hop decision.
inline constexpr double kRetuneTimeS = 150e-6;

struct HoppingConfig {
  /// Bands to sweep, in order; defaults to the full US plan when empty.
  std::vector<phy::WifiBand> bands;
  /// Dwell on each band collecting CSI exchanges before initiating the hop.
  double dwell_time_s = 2.0e-3;
  /// Control packet / ACK loss probability per transmission.
  double loss_probability = 0.02;
  /// Maximum retransmissions before declaring the hop failed; a failed hop
  /// falls back to the fail-safe (revert to default band, restart there).
  int max_retries = 4;
};

struct SweepStats {
  double total_time_s = 0.0;       ///< time to cover every band once
  std::size_t bands_visited = 0;
  std::size_t control_packets = 0; ///< including retransmissions
  std::size_t retransmissions = 0;
  std::size_t failsafe_resets = 0;
  bool completed = false;
};

/// Simulates one full sweep over the configured bands and reports timing.
/// Deterministic given `rng`.
SweepStats simulate_sweep(const HoppingConfig& config, mathx::Rng& rng);

/// Convenience: distribution of sweep times over `trials` runs.
std::vector<double> sweep_time_distribution(const HoppingConfig& config,
                                            std::size_t trials,
                                            mathx::Rng& rng);

}  // namespace chronos::proto
