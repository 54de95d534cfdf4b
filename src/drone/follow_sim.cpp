#include "drone/follow_sim.hpp"

#include <algorithm>
#include <cmath>

#include "mathx/contracts.hpp"
#include "mathx/stats.hpp"

namespace chronos::drone {

namespace {
constexpr NodeId kUser{31};
constexpr NodeId kDrone{32};
/// Chronos measurement rate (one full band sweep each).
constexpr double kMeasurementRateHz = 12.0;
/// User walking speed.
constexpr double kUserSpeedMps = 0.5;
/// Drone speed limit (m/s) between control steps.
constexpr double kDroneMaxSpeedMps = 1.5;
}  // namespace

FollowRunResult run_follow_simulation(const FollowSimConfig& config,
                                      mathx::Rng& rng) {
  CHRONOS_EXPECTS(config.duration_s > 0.0, "duration must be positive");

  SimDeployment room;
  room.environment = SimEnvironment::kDroneRoom6x5;
  room.nodes = {{kUser, {{0.0, 0.0}}}, {kDrone, {{1.0, 0.0}}}};
  Engine engine = Engine::create_simulated(room).value();
  CHRONOS_EXPECTS(engine.calibrate(kUser, kDrone, rng).ok(),
                  "drone-room calibration failed");

  const double dt = 1.0 / kMeasurementRateHz;

  // The user walks; the drone starts at the target distance to its side.
  WaypointWalk walk(6.0, 5.0, config.user_waypoints, kUserSpeedMps, rng);
  geom::Vec2 drone_pos =
      walk.position_at(0.0) + geom::Vec2{config.controller.target_distance_m, 0.0};

  RangeFilter filter(config.controller);
  FollowRunResult out;

  for (double t = 0.0; t < config.duration_s; t += dt) {
    const geom::Vec2 user_pos = walk.position_at(t);

    // Chronos measurement between the user's device and the drone's radio,
    // both re-registered at their current positions.
    CHRONOS_EXPECTS(engine.add_node({kUser, {user_pos}}).ok() &&
                        engine.add_node({kDrone, {drone_pos}}).ok(),
                    "drone-room nodes must register");
    const auto range = engine.measure({{kUser, 0}, {kDrone, 0}}, rng);

    const auto filtered = filter.push(range.value().distance_m);
    const double measured =
        filtered.value_or(config.controller.target_distance_m);

    // Camera-facing heading comes from the compasses (§12.4); range
    // control acts along the drone->user direction.
    const geom::Vec2 to_user = (user_pos - drone_pos).normalized();
    const double step = control_step(config.controller, measured);
    const double max_move = kDroneMaxSpeedMps * dt;
    const double move = std::clamp(step, -max_move, max_move);
    drone_pos += to_user * move;

    FollowSample s;
    s.t_s = t;
    s.user = user_pos;
    s.drone = drone_pos;
    s.true_distance_m = geom::distance(user_pos, drone_pos);
    s.measured_distance_m = measured;
    out.trace.push_back(s);

    // Skip the convergence transient (first two seconds) in the metric.
    if (t >= 2.0) {
      out.distance_deviation_m.push_back(
          std::abs(s.true_distance_m - config.controller.target_distance_m));
    }
  }

  if (!out.distance_deviation_m.empty()) {
    out.rms_deviation_m = mathx::rms(out.distance_deviation_m);
  }
  return out;
}

}  // namespace chronos::drone
