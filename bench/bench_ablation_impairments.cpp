// Ablation — which parts of the pipeline earn their keep?
//
// Toggles the paper's counter-measures one at a time on the same workload:
//  * two-way combining off      (S7: CFO + per-hop LO phase survive)
//  * zero-subcarrier interp off  -> here: detection delay not removable,
//    shown instead by disabling the ToA gate and quirk fix
//  * calibration off            (S7: kappa / hardware delay survive)
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/sweep_source.hpp"
#include "mathx/constants.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace chronos;

struct Variant {
  const char* name;
  bool two_way = true;
  bool quirk_fix = true;
  bool calibrate = true;
  bool toa_gate = true;
};

void run_variant(const Variant& v) {
  const auto scen = sim::office_testbed(42);
  EngineOptions options;
  options.ranging.combining.two_way = v.two_way;
  options.ranging.combining.quirk_fix = v.quirk_fix;
  options.ranging.use_toa_gate = v.toa_gate;
  auto src = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                    sim::LinkSimConfig{});
  Engine eng = Engine::adopt(src, options);
  mathx::Rng rng(41);
  // One card pair (node id = hardware seed), re-registered per placement.
  src->add_node(sim::make_mobile({0.0, 0.0}, 11));
  src->add_node(sim::make_mobile({1.0, 0.0}, 22));
  if (v.calibrate) (void)eng.calibrate(NodeId{11}, NodeId{22}, rng);

  std::vector<double> err_m;
  for (int i = 0; i < 20; ++i) {
    const auto pl = scen.sample_pair_los(rng, 1.0, 12.0);
    src->add_node(sim::make_mobile(pl.tx, 11));
    src->add_node(sim::make_mobile(pl.rx, 22));
    const auto r = eng.measure({{NodeId{11}, 0}, {NodeId{22}, 0}}, rng).value();
    err_m.push_back(std::abs(r.distance_m - pl.distance()));
  }
  std::printf("  %-36s median %8.3f m   95%% %8.3f m\n", v.name,
              mathx::median(err_m), mathx::percentile(err_m, 95.0));
}

}  // namespace

int main() {
  bench::header("Ablation", "impairment counter-measures on/off (LOS)");

  run_variant({"full pipeline"});
  run_variant({"no two-way combining", false, true, true, true});
  run_variant({"no 2.4 GHz quirk fix", true, false, true, true});
  run_variant({"no calibration", true, true, false, true});
  run_variant({"no ToA gate", true, true, true, false});

  std::printf(
      "\n  expected: one-way stitching collapses (random per-hop LO phase),\n"
      "  missing quirk fix corrupts the 11 quadrant-folded 2.4 GHz rows,\n"
      "  missing calibration leaves the ~7 m hardware-delay bias, and the\n"
      "  missing gate re-exposes the 50 ns lattice ghosts at long range.\n");
  return 0;
}
