// Fig 8(a) — distance error vs ground-truth separation, bucketed
// 0-2 m ... 12-15 m.
//
// Paper: median error ~10 cm at short range rising to 25.6 cm at 12-15 m
// (driven by SNR loss with distance).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include <memory>

#include "core/sweep_source.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace chronos;
  bench::header("Fig 8a", "distance error vs device separation");

  const auto scen = sim::office_testbed(42);
  auto src = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                    sim::LinkSimConfig{});
  Engine eng = Engine::adopt(src);
  mathx::Rng rng(17);
  src->add_node(NodeId{9001}, sim::make_mobile({0.0, 0.0}, 11));
  src->add_node(NodeId{9002}, sim::make_mobile({1.0, 0.0}, 22));
  if (!eng.calibrate(NodeId{9001}, NodeId{9002}, rng).ok()) return 1;

  const double edges[] = {1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0};
  constexpr int kPerBucket = 14;

  std::printf("  %-10s %-14s %-14s %-10s\n", "range", "median err (m)",
              "stddev (m)", "time (ns)");
  std::vector<double> all_errors;
  std::vector<std::pair<std::string, double>> metrics;
  std::uint64_t next_id = 1000;
  for (std::size_t b = 0; b + 1 < std::size(edges); ++b) {
    std::vector<double> errors;
    for (int i = 0; i < kPerBucket; ++i) {
      // Mix of LOS and NLOS, as in the paper's aggregate plot.
      sim::Placement pl;
      try {
        pl = (i % 3 == 0)
                 ? scen.sample_pair_nlos(rng, edges[b], edges[b + 1])
                 : scen.sample_pair_los(rng, edges[b], edges[b + 1]);
      } catch (const std::invalid_argument&) {
        pl = scen.sample_pair(rng, edges[b], edges[b + 1]);
      }
      const NodeId tx_id{next_id++}, rx_id{next_id++};
      src->add_node(tx_id, sim::make_mobile(pl.tx, 11));
      src->add_node(rx_id, sim::make_mobile(pl.rx, 22));
      const auto r = eng.measure({{tx_id, 0}, {rx_id, 0}}, rng).value();
      errors.push_back(std::abs(r.distance_m - pl.distance()));
    }
    const double med = mathx::median(errors);
    std::printf("  %.0f-%-7.0f %-14.3f %-14.3f %-10.2f\n", edges[b],
                edges[b + 1], med, mathx::stddev(errors),
                med / 0.299792458);
    metrics.emplace_back("median_m_" + std::to_string(static_cast<int>(edges[b])) +
                             "_" + std::to_string(static_cast<int>(edges[b + 1])),
                         med);
    all_errors.insert(all_errors.end(), errors.begin(), errors.end());
  }
  std::printf("\n");
  std::printf("  paper: ~0.10 m at short range, rising to 0.256 m at 12-15 m\n");
  bench::append_percentiles(metrics, "err", "m", all_errors);
  bench::json_summary("fig8a", metrics);
  return 0;
}
