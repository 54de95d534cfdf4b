// Closed-loop personal-drone simulation (paper §12.4, Fig 10).
//
// A quadrotor with a 3-antenna Intel 5300 follows a walking user at a
// constant 1.4 m in the 6 m x 5 m motion-capture room, ranging the user's
// single-antenna device with Chronos at the sweep rate (~12 Hz) and
// stepping via the negative-feedback controller.
#pragma once

#include <vector>

#include "core/api.hpp"
#include "drone/controller.hpp"
#include "drone/trajectory.hpp"

namespace chronos::drone {

/// The run's settable shape; the measurement rate, walking speed and drone
/// speed limit are constants in drone/follow_sim.cpp.
struct FollowSimConfig {
  ControllerConfig controller{};
  /// Wall-clock duration of the run.
  double duration_s = 60.0;
  std::size_t user_waypoints = 8;
};

struct FollowSample {
  double t_s = 0.0;
  geom::Vec2 user;
  geom::Vec2 drone;
  double true_distance_m = 0.0;
  double measured_distance_m = 0.0;  ///< filtered Chronos estimate
};

struct FollowRunResult {
  std::vector<FollowSample> trace;
  /// |true distance - target| samples after controller convergence.
  std::vector<double> distance_deviation_m;
  double rms_deviation_m = 0.0;
};

/// Builds a drone-room engine, calibrates the user/drone device pair
/// (nodes 31/32, one radio personality each), and runs the closed loop.
FollowRunResult run_follow_simulation(const FollowSimConfig& config,
                                      mathx::Rng& rng);

}  // namespace chronos::drone
