// Fig 7(c) — histograms of packet detection delay vs propagation delay.
//
// Paper: median detection delay 177 ns with sigma 24.76 ns — roughly 8x
// the typical indoor time-of-flight, and highly variable between packets.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include <memory>

#include "core/sweep_source.hpp"
#include "mathx/constants.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace chronos;
  bench::header("Fig 7c", "packet detection delay vs propagation delay");

  const auto scen = sim::office_testbed(42);
  auto src = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                    sim::LinkSimConfig{});
  Engine eng = Engine::adopt(src);
  mathx::Rng rng(31);
  src->add_node(NodeId{9001}, sim::make_mobile({0.0, 0.0}, 11));
  src->add_node(NodeId{9002}, sim::make_mobile({1.0, 0.0}, 22));
  if (!eng.calibrate(NodeId{9001}, NodeId{9002}, rng).ok()) return 1;

  // Per-packet detection delays come from the ToA slope of each measured
  // sweep minus the recovered ToF (exactly how the paper computes them).
  std::vector<double> detection_ns, propagation_ns;
  for (int i = 0; i < 60; ++i) {
    const auto pl = scen.sample_pair(rng, 1.0, 15.0);
    const NodeId tx_id{1000 + 2 * static_cast<std::uint64_t>(i)};
    const NodeId rx_id{1001 + 2 * static_cast<std::uint64_t>(i)};
    src->add_node(tx_id, sim::make_mobile(pl.tx, 11));
    src->add_node(rx_id, sim::make_mobile(pl.rx, 22));
    const auto r = eng.measure({{tx_id, 0}, {rx_id, 0}}, rng).value();
    if (!r.peak_found) continue;
    detection_ns.push_back(r.detection_delay_s * 1e9);
    propagation_ns.push_back(mathx::distance_to_tof(pl.distance()) * 1e9);
  }

  bench::print_histogram(mathx::histogram(propagation_ns, 0.0, 60.0, 12),
                         "propagation delay (ns)");
  bench::print_histogram(mathx::histogram(detection_ns, 100.0, 300.0, 20),
                         "packet detection delay (ns)");
  std::printf("\n");
  bench::paper_vs_measured("median detection delay", 177.0,
                           mathx::median(detection_ns), "ns");
  bench::paper_vs_measured("std-dev of detection delay", 24.76,
                           mathx::stddev(detection_ns), "ns");
  bench::paper_vs_measured(
      "detection delay / ToF ratio (paper ~8x)", 8.0,
      mathx::median(detection_ns) / mathx::median(propagation_ns), "x");
  std::vector<std::pair<std::string, double>> metrics = {
      {"median_detection_ns", mathx::median(detection_ns)},
      {"std_detection_ns", mathx::stddev(detection_ns)},
      {"delay_tof_ratio",
       mathx::median(detection_ns) / mathx::median(propagation_ns)}};
  bench::append_percentiles(metrics, "detection", "ns", detection_ns);
  bench::json_summary("fig7c", metrics);
  return 0;
}
