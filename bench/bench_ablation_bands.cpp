// Ablation — how many bands does Chronos actually need?
//
// Sweeps the band subset used for stitching (2.4 GHz only, 5 GHz only,
// UNII-1 only, everything) and measures ToF accuracy on the Fig-7a
// workload. The paper's claim: the scattered, unequally-spaced full plan is
// what buys unambiguous sub-ns ToF.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/sweep_source.hpp"
#include "mathx/constants.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace chronos;

void run_subset(const char* name, std::vector<phy::WifiBand> bands) {
  const auto scen = sim::office_testbed(42);
  sim::LinkSimConfig link;
  link.bands = std::move(bands);
  auto src =
      std::make_shared<core::SimSweepSource>(scen.environment(), link);
  Engine eng = Engine::adopt(src);
  mathx::Rng rng(71);
  // One card pair (node id = hardware seed), re-registered per placement.
  src->add_node(sim::make_mobile({0.0, 0.0}, 11));
  src->add_node(sim::make_mobile({1.0, 0.0}, 22));
  (void)eng.calibrate(NodeId{11}, NodeId{22}, rng);

  std::vector<double> err_ns;
  for (int i = 0; i < 25; ++i) {
    const auto pl = scen.sample_pair_los(rng, 1.0, 12.0);
    src->add_node(sim::make_mobile(pl.tx, 11));
    src->add_node(sim::make_mobile(pl.rx, 22));
    const auto r = eng.measure({{NodeId{11}, 0}, {NodeId{22}, 0}}, rng).value();
    err_ns.push_back(
        std::abs(r.tof_s - mathx::distance_to_tof(pl.distance())) * 1e9);
  }
  std::printf("  %-28s median %7.3f ns   95%% %8.3f ns\n", name,
              mathx::median(err_ns), mathx::percentile(err_ns, 95.0));
}

}  // namespace

int main() {
  bench::header("Ablation", "ToF accuracy vs stitched band subset (LOS)");

  run_subset("all 35 US bands", {});
  run_subset("5 GHz only (24 bands)", phy::bands_5ghz());
  run_subset("2.4 GHz only (11 bands)", phy::bands_2_4ghz());
  {
    std::vector<phy::WifiBand> unii1;
    for (const auto& b : phy::us_band_plan()) {
      if (b.group == phy::BandGroup::k5GHzUnii1 ||
          b.group == phy::BandGroup::k5GHzUnii2) {
        unii1.push_back(b);
      }
    }
    run_subset("UNII-1+2 only (8 bands)", std::move(unii1));
  }
  std::printf(
      "\n  takeaway: narrow subsets lose both aperture (resolution) and\n"
      "  lattice diversity (ambiguity suppression); the full plan wins.\n");
  return 0;
}
