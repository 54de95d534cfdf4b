#include "net/video.hpp"

#include <algorithm>

#include "mathx/contracts.hpp"

namespace chronos::net {

namespace {
constexpr double kBitrateBps = 2.5e6;  ///< encoded video rate (= playback drain)
/// Playback starts once this much video is buffered.
constexpr double kPrebufferS = 1.0;
constexpr double kDtS = 1e-3;
}  // namespace

VideoRunResult run_video_session(const LinkModel& link,
                                 const VideoConfig& config, double duration_s,
                                 double sample_every_s) {
  CHRONOS_EXPECTS(duration_s > 0.0, "duration must be positive");

  VideoRunResult out;
  double downloaded = 0.0;  // bits
  double played = 0.0;      // bits
  bool playing = false;
  bool was_stalled = false;
  double next_sample = 0.0;

  for (double t = 0.0; t < duration_s; t += kDtS) {
    // Download: capped by link capacity and by the buffer ceiling.
    const double buffer_bits = downloaded - played;
    const double ceiling_bits = played + config.max_buffer_s * kBitrateBps;
    const double room = std::max(0.0, ceiling_bits - downloaded);
    const double dl = std::min(link.capacity_at(t) * kDtS, room);
    downloaded += dl;

    // Playback: starts after prebuffer, drains at the encoded rate, and
    // stalls (rebuffers) when the buffer empties.
    if (!playing && buffer_bits >= kPrebufferS * kBitrateBps) {
      playing = true;
    }
    if (playing) {
      const double want = kBitrateBps * kDtS;
      if (downloaded - played >= want) {
        played += want;
        was_stalled = false;
      } else {
        if (!was_stalled) ++out.stall_events;
        was_stalled = true;
        out.total_stall_time_s += kDtS;
      }
    }

    if (t >= next_sample) {
      out.trace.push_back({t, downloaded, played,
                           (downloaded - played) / kBitrateBps,
                           was_stalled});
      next_sample += sample_every_s;
    }
  }
  return out;
}

}  // namespace chronos::net
