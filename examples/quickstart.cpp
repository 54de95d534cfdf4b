// Quickstart: measure the sub-nanosecond time-of-flight between two
// simulated Wi-Fi devices and convert it to a distance — entirely through
// the public chronos:: API (v2). This file compiles with
// -DCHRONOS_NO_SIM_IN_PUBLIC_API: no simulator header is reachable from
// here, only backend-neutral ids and Status-based results.
//
//   1. describe a deployment (named environment + node directory),
//   2. build an Engine,
//   3. calibrate the device pair once at a known distance,
//   4. range by NodeId.
#include <cstdio>

#include "chronos.hpp"

int main() {
  using namespace chronos;

  // Two nodes with distinct radio "personalities" (the id seeds each
  // node's chain ripple, like real cards). The 20x20 m office testbed
  // supplies multipath.
  const NodeId phone{101};
  const NodeId laptop{202};
  SimDeployment deployment;
  deployment.environment = SimEnvironment::kOffice20x20;
  deployment.nodes = {{phone, {{3.0, 4.0}}}, {laptop, {{9.0, 8.0}}}};

  auto built = Engine::create_simulated(deployment);
  if (!built.ok()) {
    std::printf("engine construction failed: %s\n",
                built.status().to_string().c_str());
    return 1;
  }
  Engine engine = std::move(built).value();

  mathx::Rng rng(2016);

  // One-time calibration: absorbs the pair's hardware delays and per-band
  // phase offsets (paper §7). Done at a known 3 m separation.
  if (const auto s = engine.calibrate(phone, laptop, rng); !s.ok()) {
    std::printf("calibration failed: %s\n", s.to_string().c_str());
    return 1;
  }

  // One Chronos measurement = one sweep over all 35 US Wi-Fi bands.
  const auto measured = engine.measure({{phone, 0}, {laptop, 0}}, rng);
  if (!measured.ok()) {
    std::printf("measurement failed: %s\n",
                measured.status().to_string().c_str());
    return 1;
  }
  const auto& result = measured.value();

  const double true_distance =
      geom::distance({3.0, 4.0}, {9.0, 8.0});
  std::printf("Chronos quickstart (backend: %s)\n",
              engine.backend_name().c_str());
  std::printf("  true distance   : %.3f m\n", true_distance);
  std::printf("  time-of-flight  : %.3f ns\n", result.tof_s * 1e9);
  std::printf("  estimated dist. : %.3f m  (error %+.1f cm)\n",
              result.distance_m,
              100.0 * (result.distance_m - true_distance));
  std::printf("  detection delay : %.0f ns (removed by zero-subcarrier interpolation)\n",
              result.detection_delay_s * 1e9);
  std::printf("  multipath peaks : %zu in the recovered profile\n",
              result.profile.peaks.size());

  // Typed errors instead of exceptions: a request naming an unknown node
  // is data, not a crash.
  const auto bad = engine.measure({{NodeId{999}, 0}, {laptop, 0}}, rng);
  std::printf("  unknown node    : %s (recoverable, no exception)\n",
              to_string(bad.status().code()));

  // Streaming ingestion with backpressure: a bounded-queue session over
  // the same engine. try_submit never blocks — a full queue reports
  // kQueueFull and the producer decides what to do. How many submissions
  // find the queue full depends on how fast the workers run, so only the
  // depth and the one-result-per-accepted-request contract are printed.
  RangingSession session = engine.open_session(rng, {.queue_depth = 2});
  std::size_t accepted = 0;
  std::size_t collected = 0;
  for (int i = 0; i < 6; ++i) {
    const auto ticket = session.try_submit({{phone, 0}, {laptop, 0}});
    if (ticket.ok()) {
      ++accepted;
    } else if (ticket.status().code() == StatusCode::kQueueFull) {
      (void)session.next();  // make room: collect the oldest result
      ++collected;
    }
  }
  collected += session.drain().size();
  std::printf("  streaming       : depth %zu, %s\n", session.queue_depth(),
              collected == accepted
                  ? "one result per accepted request"
                  : "accepted and collected counts differ");
  return collected == accepted ? 0 : 1;
}
