// Device-to-device localization (paper §8, §12.2): a laptop with three
// antennas locates a phone with no infrastructure support — no access
// points, no fingerprinting, no anchor surveys — addressed through the v2
// id-based API (Engine::locate over NodeIds).
//
// The laptop ranges the phone against each of its antennas, rejects
// geometry-inconsistent estimates, and intersects the distance circles.
#include <cstdio>
#include <memory>

#include "core/sweep_source.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace chronos;

  const auto scen = sim::office_testbed(42);
  auto source = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                       sim::LinkSimConfig{});
  Engine engine = Engine::adopt(source);
  mathx::Rng rng(7);

  source->add_node(NodeId{1}, sim::make_mobile({0.0, 0.0}, 11));
  source->add_node(NodeId{2}, sim::make_laptop({1.0, 0.0}, 0.3, 22));
  if (const auto s = engine.calibrate(NodeId{1}, NodeId{2}, rng); !s.ok()) {
    std::printf("calibration failed: %s\n", s.to_string().c_str());
    return 1;
  }

  std::printf("Device-to-device localization (3-antenna laptop, 30 cm span)\n");
  std::printf("  %-22s %-22s %-10s\n", "phone truth", "estimate", "error (m)");

  for (int trial = 0; trial < 5; ++trial) {
    const auto pl = scen.sample_pair_los(rng, 2.0, 10.0);
    // Same physical cards (personality seeds 11 / 22) at this trial's
    // placement, registered under per-trial ids.
    const NodeId phone{10 + static_cast<std::uint64_t>(trial)};
    const NodeId laptop{20 + static_cast<std::uint64_t>(trial)};
    source->add_node(phone, sim::make_mobile(pl.tx, 11));
    source->add_node(laptop, sim::make_laptop(pl.rx, 0.3, 22));

    const auto located = engine.locate(phone, laptop, rng);
    if (!located.ok()) {
      std::printf("  trial %d: %s\n", trial,
                  located.status().to_string().c_str());
      continue;
    }
    const auto& out = located.value();
    if (!out.result.valid) {
      std::printf("  trial %d: localization failed\n", trial);
      continue;
    }
    std::printf("  (%6.2f, %6.2f)       (%6.2f, %6.2f)       %.2f\n",
                pl.tx.x, pl.tx.y, out.result.position.x,
                out.result.position.y,
                geom::distance(out.result.position, pl.tx));
    std::printf("    per-antenna distances:");
    for (std::size_t a = 0; a < out.antenna_distances_m.size(); ++a) {
      std::printf(" %.2f m%s", out.antenna_distances_m[a],
                  out.result.used[a] ? "" : " (rejected)");
    }
    std::printf("\n");
  }
  std::printf("\npaper reference: median 58 cm (LOS) with this geometry.\n");
  return 0;
}
