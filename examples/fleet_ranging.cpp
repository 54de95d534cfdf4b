// Fleet ranging: one access point concurrently ranges a whole fleet of
// simulated devices with the batched runtime, addressed through the v2
// id-based API (Engine::measure_batch over chronos::RangingRequest).
//
// This is the shape of the ROADMAP's million-pair deployment in miniature:
//   1. register the fleet in the backend's node directory,
//   2. submit the (device antenna, AP antenna) pairs as one id-based
//      batch — the worker pool fans the sweeps out across cores,
//   3. read results back in submission order, bit-identical to a
//      sequential loop no matter how many threads ran; per-request
//      failures arrive as statuses, never as exceptions.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/sweep_source.hpp"
#include "sim/environment.hpp"

int main() {
  using namespace chronos;

  auto source = std::make_shared<core::SimSweepSource>(sim::office_20x20(),
                                                       sim::LinkSimConfig{});
  mathx::Rng rng(77);

  // The anchor: a 3-antenna AP in the middle of the floor.
  const NodeId ap_id{500};
  const auto ap = sim::make_access_point({10.0, 10.0}, 1.0, 500);
  source->add_node(ap_id, ap);

  // A fleet of phones scattered over the office.
  std::vector<sim::Device> fleet;
  for (int i = 0; i < 10; ++i) {
    const double x = 2.5 + 1.6 * i;
    const double y = 3.0 + (i % 2 == 0 ? 0.0 : 11.0);
    fleet.push_back(
        sim::make_mobile({x, y}, 100 + static_cast<std::uint64_t>(i)));
    source->add_node(fleet.back());  // id = hardware seed (100 + i)
  }

  Engine engine = Engine::adopt(source);
  source->add_node(NodeId{99}, sim::make_mobile({0.0, 0.0}, 100));
  if (const auto s = engine.calibrate(NodeId{99}, ap_id, rng); !s.ok()) {
    std::printf("calibration failed: %s\n", s.to_string().c_str());
    return 1;
  }

  // Every fleet device against the AP's first antenna, one id-based batch.
  std::vector<RangingRequest> requests;
  for (std::uint64_t i = 0; i < fleet.size(); ++i) {
    requests.push_back({{NodeId{100 + i}, 0}, {ap_id, 0}});
  }
  const auto batch = engine.measure_batch(requests, rng);

  std::printf("Fleet ranging: %zu devices vs one AP, %d worker thread(s), "
              "%.2f s wall (%.1f ranges/sec)\n",
              fleet.size(), batch.threads_used, batch.wall_time_s,
              static_cast<double>(requests.size()) / batch.wall_time_s);
  std::printf("  %-8s %-12s %-12s %-10s\n", "device", "true [m]", "est [m]",
              "err [cm]");
  int found = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const double truth =
        geom::distance(fleet[i].antennas[0], ap.antennas[0]);
    const auto& r = batch.results[i];
    if (!r.status.ok()) {
      std::printf("  %-8zu %s\n", i, r.status.to_string().c_str());
      continue;
    }
    std::printf("  %-8zu %-12.3f %-12.3f %+-10.1f\n", i, truth, r.distance_m,
                100.0 * (r.distance_m - truth));
    if (r.peak_found) ++found;
  }
  std::printf("  %d/%zu ranges resolved a direct path\n", found, fleet.size());

  // Smoke-test contract: every range must resolve in this benign layout.
  return found == static_cast<int>(fleet.size()) ? 0 : 1;
}
