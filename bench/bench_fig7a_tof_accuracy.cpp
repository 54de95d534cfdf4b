// Fig 7(a) — CDF of time-of-flight error between two devices across random
// placements in the 20x20 m office testbed, LOS and NLOS, full impairment
// model, one-time calibration.
//
// Paper: median 0.47 ns LOS / 0.69 ns NLOS; 95th pct 1.96 / 4.01 ns.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include <memory>

#include "core/sweep_source.hpp"
#include "mathx/constants.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace chronos;
  bench::header("Fig 7a", "accuracy in time-of-flight (LOS / NLOS CDFs)");

  const auto scen = sim::office_testbed(42);
  auto src = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                    sim::LinkSimConfig{});
  Engine eng = Engine::adopt(src);
  mathx::Rng rng(99);
  src->add_node(NodeId{9001}, sim::make_mobile({0.0, 0.0}, 11));
  src->add_node(NodeId{9002}, sim::make_mobile({1.0, 0.0}, 22));
  if (!eng.calibrate(NodeId{9001}, NodeId{9002}, rng).ok()) return 1;

  // Sample every placement first, then range them in one batch: identical
  // statistics, but the sweeps run concurrently on the batched runtime
  // (results are bit-reproducible for any thread count).
  constexpr int kTrials = 60;
  std::vector<RangingRequest> requests;
  std::vector<double> truth_tof_s;
  std::vector<bool> is_los;
  std::uint64_t next_id = 1000;
  for (int i = 0; i < kTrials; ++i) {
    for (int los = 0; los < 2; ++los) {
      const auto pl = los ? scen.sample_pair_los(rng, 1.0, 15.0)
                          : scen.sample_pair_nlos(rng, 1.0, 15.0);
      // Same two physical cards (personality seeds 11 / 22) at this
      // placement, registered under per-placement ids.
      const NodeId tx_id{next_id++}, rx_id{next_id++};
      src->add_node(tx_id, sim::make_mobile(pl.tx, 11));
      src->add_node(rx_id, sim::make_mobile(pl.rx, 22));
      requests.push_back({{tx_id, 0}, {rx_id, 0}});
      truth_tof_s.push_back(mathx::distance_to_tof(pl.distance()));
      is_los.push_back(los == 1);
    }
  }
  const auto batch = eng.measure_batch(requests, rng);

  std::vector<double> err_los_ns, err_nlos_ns;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double err_ns =
        std::abs(batch.results[i].tof_s - truth_tof_s[i]) * 1e9;
    (is_los[i] ? err_los_ns : err_nlos_ns).push_back(err_ns);
  }

  bench::print_cdf(err_los_ns, "ToF error, LOS (ns)");
  bench::print_cdf(err_nlos_ns, "ToF error, NLOS (ns)");
  std::printf("\n");
  bench::paper_vs_measured("LOS median ToF error", 0.47,
                           mathx::median(err_los_ns), "ns");
  bench::paper_vs_measured("LOS 95th pct ToF error", 1.96,
                           mathx::percentile(err_los_ns, 95.0), "ns");
  bench::paper_vs_measured("NLOS median ToF error", 0.69,
                           mathx::median(err_nlos_ns), "ns");
  bench::paper_vs_measured("NLOS 95th pct ToF error", 4.01,
                           mathx::percentile(err_nlos_ns, 95.0), "ns");
  std::printf("  (%d placements per condition, seed 99, %d worker threads)\n",
              kTrials, batch.threads_used);
  std::vector<std::pair<std::string, double>> metrics = {
      {"los_median_ns", mathx::median(err_los_ns)},
      {"los_p95_ns", mathx::percentile(err_los_ns, 95.0)},
      {"nlos_median_ns", mathx::median(err_nlos_ns)},
      {"nlos_p95_ns", mathx::percentile(err_nlos_ns, 95.0)}};
  bench::append_percentiles(metrics, "los", "ns", err_los_ns);
  bench::append_percentiles(metrics, "nlos", "ns", err_nlos_ns);
  bench::json_summary("fig7a", metrics);
  return 0;
}
