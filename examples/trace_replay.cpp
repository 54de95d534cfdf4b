// Recorded-trace ranging: capture a measurement campaign to CSI trace
// files (phy::csi_io), then range it end-to-end through a replay backend —
// no simulator in the loop at estimation time, and no simulator *type* in
// this file at all: it compiles with -DCHRONOS_NO_SIM_IN_PUBLIC_API
// against only the public chronos:: API.
//
// This is the deployment shape for real Intel 5300 captures (Linux 802.11n
// CSI Tool traces converted to the csi_io format):
//   1. a capture session records per-link sweeps + a one-time calibration,
//   2. the files are replayed through the identical estimation pipeline by
//      an Engine built from a TraceDeployment,
//   3. results are bit-identical to ranging the in-memory sweeps directly —
//      the estimator cannot tell replay from live measurement.
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "chronos.hpp"

int main() {
  using namespace chronos;

  // ---- capture session (stands in for real hardware + CSI Tool) --------
  const NodeId anchor{900};
  SimDeployment deployment;
  deployment.nodes = {{anchor,
                       {{9.5, 10.0}, {10.5, 10.0}, {10.0, 9.6}}},
                      {NodeId{901}, {{0.0, 0.0}}}};  // calibration partner
  std::vector<geom::Vec2> positions;
  for (int i = 0; i < 4; ++i) {
    const NodeId id{910 + static_cast<std::uint64_t>(i)};
    const geom::Vec2 pos{3.0 + 4.0 * i, 5.0 + 2.0 * (i % 2)};
    deployment.nodes.push_back({id, {pos}});
    positions.push_back(pos);
  }
  Engine capture = Engine::create_simulated(deployment).value();
  mathx::Rng rng(2026);
  if (const auto s = capture.calibrate(NodeId{901}, anchor, rng); !s.ok()) {
    std::printf("calibration failed: %s\n", s.to_string().c_str());
    return 1;
  }

  const auto trace_dir =
      std::filesystem::temp_directory_path() / "chronos_trace_replay";
  std::filesystem::create_directories(trace_dir);

  std::vector<RangingRequest> requests;
  std::vector<core::RangingResult> live;
  TraceDeployment replay_spec;
  for (std::uint64_t i = 0; i < positions.size(); ++i) {
    const RangingRequest req{{NodeId{910 + i}, 0}, {anchor, 0}};
    // One recorded sweep per link; the pipeline result on the in-memory
    // sweep is the reference the replay must reproduce exactly.
    mathx::Rng sweep_rng = rng.fork(i);
    const auto sweep = capture.capture_sweep(req, sweep_rng).value();
    live.push_back(capture.estimate(sweep).value());
    const auto path =
        (trace_dir / ("link_" + std::to_string(i) + ".csi")).string();
    phy::save_sweep(path, sweep);
    replay_spec.links.push_back({req, path});
    requests.push_back(req);
  }

  // ---- replay session (no simulator behind the engine) -----------------
  auto built = Engine::create_replay(replay_spec);
  if (!built.ok()) {
    std::printf("replay engine construction failed: %s\n",
                built.status().to_string().c_str());
    return 1;
  }
  Engine replay = std::move(built).value();
  if (const chronos::Status s = replay.set_calibration(capture.calibration());
      !s.ok()) {
    std::printf("calibration install failed: %s\n", s.to_string().c_str());
    return 1;
  }

  mathx::Rng replay_rng(1);
  const auto batch = replay.measure_batch(requests, replay_rng);

  std::printf("Trace replay: %zu recorded links via %s backend (%zu nodes "
              "in directory)\n",
              replay_spec.links.size(), replay.backend_name().c_str(),
              replay.registry().nodes().size());
  std::printf("  %-6s %-12s %-12s %-12s %s\n", "link", "true [m]",
              "live [m]", "replayed [m]", "bit-identical");
  int mismatches = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Truth for the ranged link: device antenna 0 to anchor antenna 0
    // (at {9.5, 10.0} per the deployment spec above).
    const double truth = geom::distance(positions[i], {9.5, 10.0});
    const bool identical =
        batch.results[i].status.ok() &&
        batch.results[i].tof_s == live[i].tof_s &&
        batch.results[i].distance_m == live[i].distance_m;
    if (!identical) ++mismatches;
    std::printf("  %-6zu %-12.3f %-12.3f %-12.3f %s\n", i, truth,
                live[i].distance_m, batch.results[i].distance_m,
                identical ? "yes" : "NO");
  }

  // An unrecorded link is a typed, recoverable error — not an exception.
  mathx::Rng probe_rng(2);
  const auto missing =
      replay.measure({{NodeId{910}, 0}, {NodeId{911}, 0}}, probe_rng);
  std::printf("  unrecorded link : %s\n",
              to_string(missing.status().code()));

  for (const auto& link : replay_spec.links) {
    std::filesystem::remove(link.path);
  }
  std::filesystem::remove(trace_dir);

  // Smoke-test contract: replayed estimates must equal the live ones
  // bit-for-bit (same sweeps, same pipeline, same calibration).
  std::printf("  %d mismatching results (must be 0)\n", mismatches);
  return mismatches == 0 ? 0 : 1;
}
