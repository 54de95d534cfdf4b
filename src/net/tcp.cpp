#include "net/tcp.hpp"

#include <algorithm>
#include <cmath>

#include "mathx/contracts.hpp"

namespace chronos::net {

namespace {
constexpr double kRttS = 0.02;
constexpr double kMssBytes = 1500.0;
constexpr double kSsthreshSegments = 64.0;
/// Simulation tick.
constexpr double kDtS = 1e-3;
}  // namespace

TcpRunResult run_tcp_flow(const LinkModel& link, const TcpConfig& config,
                          double duration_s, double window_s) {
  CHRONOS_EXPECTS(duration_s > 0.0 && window_s > 0.0, "bad durations");
  CHRONOS_EXPECTS(kDtS < window_s, "tick must be below the reporting window");

  TcpRunResult out;
  double cwnd = config.initial_cwnd_segments;
  double ssthresh = kSsthreshSegments;
  double queue_bytes = 0.0;

  double window_delivered = 0.0;
  double window_start = 0.0;

  for (double t = 0.0; t < duration_s; t += kDtS) {
    const double capacity = link.capacity_at(t);

    // Sender offers cwnd worth of data per RTT (ACK-clocked fluid rate).
    const double offered_bps = cwnd * kMssBytes * 8.0 / kRttS;

    // The queue absorbs the difference between offered load and capacity.
    const double arrived = offered_bps / 8.0 * kDtS;
    const double drained = capacity / 8.0 * kDtS;
    queue_bytes += arrived - drained;
    double delivered = drained;
    if (queue_bytes < 0.0) {
      // Queue emptied: only what arrived actually crossed the link.
      delivered = drained + queue_bytes;
      queue_bytes = 0.0;
    }

    if (queue_bytes > config.queue_limit_bytes) {
      // Overflow loss: Reno halves the window, queue sheds the excess.
      cwnd = std::max(2.0, cwnd / 2.0);
      ssthresh = cwnd;
      queue_bytes = config.queue_limit_bytes;
      ++out.losses;
    } else if (cwnd < ssthresh) {
      // Slow start: +1 segment per ACKed segment.
      cwnd += delivered / kMssBytes;
    } else {
      // Congestion avoidance: +1 segment per RTT.
      cwnd += kDtS / kRttS;
    }

    out.total_delivered_bytes += delivered;
    window_delivered += delivered;

    if (t + kDtS >= window_start + window_s) {
      out.trace.push_back(
          {window_start + window_s, window_delivered * 8.0 / window_s, cwnd});
      window_delivered = 0.0;
      window_start += window_s;
    }
  }
  return out;
}

}  // namespace chronos::net
