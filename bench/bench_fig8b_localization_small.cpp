// Fig 8(b) — localization error CDF with a 3-antenna client whose antennas
// span 30 cm (two laptops localizing each other).
//
// Paper: median 58 cm LOS / 118 cm NLOS.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include <memory>

#include "core/sweep_source.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace chronos;
  bench::header("Fig 8b", "localization error, 30 cm antenna separation");

  const auto scen = sim::office_testbed(42);
  auto src = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                    sim::LinkSimConfig{});
  Engine eng = Engine::adopt(src);
  mathx::Rng rng(23);
  src->add_node(NodeId{9001}, sim::make_laptop({0.0, 0.0}, 0.3, 11));
  src->add_node(NodeId{9002}, sim::make_laptop({1.5, 0.0}, 0.3, 22));
  if (!eng.calibrate(NodeId{9001}, NodeId{9002}, rng).ok()) return 1;

  // Placements are sampled sequentially, then every localization runs as
  // one job on the batched runtime (bit-reproducible for any thread count).
  constexpr int kTrials = 15;
  std::vector<LocateRequest> jobs;
  std::vector<geom::Vec2> truths;
  std::vector<bool> is_los;
  std::uint64_t next_id = 1000;
  for (int i = 0; i < kTrials; ++i) {
    for (int los = 0; los < 2; ++los) {
      const auto pl = los ? scen.sample_pair_los(rng, 1.0, 15.0)
                          : scen.sample_pair_nlos(rng, 1.0, 15.0);
      const NodeId tx_id{next_id++}, rx_id{next_id++};
      src->add_node(tx_id, sim::make_laptop(pl.tx, 0.3, 11));
      src->add_node(rx_id, sim::make_laptop(pl.rx, 0.3, 22));
      jobs.push_back({tx_id, rx_id, std::nullopt});
      truths.push_back(pl.tx);
      is_los.push_back(los == 1);
    }
  }
  const auto outcomes = eng.locate_batch(jobs, rng);

  std::vector<double> err_los, err_nlos;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!outcomes[i].result.valid) continue;
    const double err = geom::distance(outcomes[i].result.position, truths[i]);
    (is_los[i] ? err_los : err_nlos).push_back(err);
  }

  bench::print_cdf(err_los, "localization error, LOS (m)");
  bench::print_cdf(err_nlos, "localization error, NLOS (m)");
  std::printf("\n");
  bench::paper_vs_measured("LOS median localization error", 0.58,
                           mathx::median(err_los), "m");
  bench::paper_vs_measured("NLOS median localization error", 1.18,
                           mathx::median(err_nlos), "m");
  std::vector<std::pair<std::string, double>> metrics = {
      {"los_median_m", mathx::median(err_los)},
      {"nlos_median_m", mathx::median(err_nlos)},
      {"valid_fraction",
       static_cast<double>(err_los.size() + err_nlos.size()) /
           static_cast<double>(jobs.size())}};
  bench::append_percentiles(metrics, "los", "m", err_los);
  bench::append_percentiles(metrics, "nlos", "m", err_nlos);
  bench::json_summary("fig8b", metrics);
  return 0;
}
