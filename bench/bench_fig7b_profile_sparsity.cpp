// Fig 7(b) — representative multipath profiles in LOS and NLOS, and the
// sparsity statistics of recovered profiles.
//
// Paper: profiles are sparse; mean dominant peaks 5.05, sigma 1.95 (NLOS);
// the leftmost peak corresponds to the true source location.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include <memory>

#include "core/sweep_source.hpp"
#include "core/profile.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace chronos;
  bench::header("Fig 7b", "multipath profiles and their sparsity");

  const auto scen = sim::office_testbed(42);
  auto src = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                    sim::LinkSimConfig{});
  Engine eng = Engine::adopt(src);
  mathx::Rng rng(7);
  src->add_node(NodeId{9001}, sim::make_mobile({0.0, 0.0}, 11));
  src->add_node(NodeId{9002}, sim::make_mobile({1.0, 0.0}, 22));
  if (!eng.calibrate(NodeId{9001}, NodeId{9002}, rng).ok()) return 1;

  // Representative profiles: one LOS, one NLOS link.
  std::uint64_t next_id = 1000;
  auto measure_pair = [&](const sim::Placement& pl) {
    const NodeId tx_id{next_id++}, rx_id{next_id++};
    src->add_node(tx_id, sim::make_mobile(pl.tx, 11));
    src->add_node(rx_id, sim::make_mobile(pl.rx, 22));
    return eng.measure({{tx_id, 0}, {rx_id, 0}}, rng).value();
  };
  for (int los = 1; los >= 0; --los) {
    const auto pl = los ? scen.sample_pair_los(rng, 3.0, 8.0)
                        : scen.sample_pair_nlos(rng, 3.0, 8.0);
    const auto r = measure_pair(pl);
    std::printf("  representative %s profile (true 2*tof = %.2f ns):\n",
                los ? "LOS" : "NLOS", 2e9 * pl.distance() / 299792458.0);
    std::printf("    %-12s %-10s\n", "u (ns)", "amplitude");
    for (const auto& p : r.profile.peaks) {
      std::printf("    %-12.2f %-10.4f\n", p.delay_s * 1e9, p.amplitude);
    }
  }

  // Sparsity statistics across many NLOS links.
  std::vector<double> peak_counts;
  for (int i = 0; i < 40; ++i) {
    const auto pl = scen.sample_pair_nlos(rng, 1.0, 15.0);
    const auto r = measure_pair(pl);
    peak_counts.push_back(
        static_cast<double>(core::dominant_peak_count(r.profile, 0.2)));
  }
  std::printf("\n");
  bench::paper_vs_measured("mean dominant peaks (NLOS)", 5.05,
                           mathx::mean(peak_counts), "");
  bench::paper_vs_measured("std-dev of dominant peaks", 1.95,
                           mathx::stddev(peak_counts), "");
  std::vector<std::pair<std::string, double>> metrics = {
      {"mean_dominant_peaks", mathx::mean(peak_counts)},
      {"std_dominant_peaks", mathx::stddev(peak_counts)}};
  bench::append_percentiles(metrics, "peaks", "n", peak_counts);
  bench::json_summary("fig7b", metrics);
  return 0;
}
