// Buffered video streaming over the outage-aware link (paper Fig 9b).
//
// A VLC-style CBR stream downloads ahead of playback into a client buffer.
// During a Chronos sweep the download pauses; the figure's point is that
// the playout buffer rides through the ~84 ms gap without a stall.
#pragma once

#include <vector>

#include "net/linkmodel.hpp"

namespace chronos::net {

/// The session's settable shape; its bitrate, prebuffer and tick are
/// constants in net/video.cpp.
struct VideoConfig {
  /// The server pushes ahead of real time up to this many seconds of
  /// buffered video at the client.
  double max_buffer_s = 4.0;
};

struct VideoTracePoint {
  double t_s = 0.0;
  double downloaded_bits = 0.0;  ///< cumulative
  double played_bits = 0.0;      ///< cumulative
  double buffer_s = 0.0;         ///< seconds of video buffered
  bool stalled = false;
};

struct VideoRunResult {
  std::vector<VideoTracePoint> trace;
  std::size_t stall_events = 0;
  double total_stall_time_s = 0.0;
};

/// Runs the session from t=0 to `duration_s`, sampling the trace every
/// `sample_every_s`.
VideoRunResult run_video_session(const LinkModel& link,
                                 const VideoConfig& config, double duration_s,
                                 double sample_every_s = 0.1);

}  // namespace chronos::net
