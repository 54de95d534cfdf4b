// Fluid-model TCP Reno flow over the outage-aware link (paper Fig 9c).
//
// A long-lived download rides the AP link; at t = 6 s another client
// requests localization and the AP goes dark for one sweep (~84 ms). The
// model captures what matters for the figure: ACK-clocked delivery at
// min(cwnd/RTT, capacity), queue build-up and Reno's halving on overflow
// loss, and the throughput dent the outage leaves in 1-second windows.
#pragma once

#include <vector>

#include "net/linkmodel.hpp"

namespace chronos::net {

/// The flow's settable shape; its RTT, MSS, initial ssthresh and tick are
/// constants in net/tcp.cpp.
struct TcpConfig {
  /// Bottleneck queue (bytes) in front of the link; overflow = loss.
  double queue_limit_bytes = 64 * 1500.0;
  double initial_cwnd_segments = 10.0;
};

struct TcpTracePoint {
  double t_s = 0.0;
  double throughput_bps = 0.0;  ///< delivered rate averaged over the window
  double cwnd_segments = 0.0;
};

struct TcpRunResult {
  std::vector<TcpTracePoint> trace;  ///< per `window_s` throughput series
  double total_delivered_bytes = 0.0;
  std::size_t losses = 0;
};

/// Runs the flow from t=0 to `duration_s`, reporting throughput per
/// `window_s` window.
TcpRunResult run_tcp_flow(const LinkModel& link, const TcpConfig& config,
                          double duration_s, double window_s = 0.5);

}  // namespace chronos::net
