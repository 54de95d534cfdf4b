#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/calibration.hpp"
#include "mathx/constants.hpp"
#include "core/sweep_source.hpp"
#include "core/ranging.hpp"
#include "sim/link.hpp"

namespace chronos::core {
namespace {

sim::LinkSimConfig quiet_link() {
  sim::LinkSimConfig c;
  c.enable_noise = false;
  c.enable_cfo = false;
  c.enable_lo_phase = false;
  c.enable_quirk = false;
  c.enable_detection_delay = true;   // keep: calibration learns its mean
  c.enable_chain_effects = true;     // keep: calibration learns kappa
  c.exchanges_per_band = 2;
  c.propagation.include_scatterers = false;
  return c;
}

std::vector<phy::SweepMeasurement> fixture_sweeps(const sim::LinkSimConfig& cfg,
                                                  double distance_m, int n,
                                                  mathx::Rng& rng) {
  sim::LinkSimulator link(sim::anechoic(), cfg);
  auto tx = sim::make_mobile({0.0, 0.0}, 11);
  auto rx = sim::make_mobile({distance_m, 0.0}, 22);
  std::vector<phy::SweepMeasurement> sweeps;
  for (int i = 0; i < n; ++i) {
    sweeps.push_back(link.simulate_sweep(tx, 0, rx, 0, rng));
  }
  return sweeps;
}

TEST(Calibration, TableCoversEveryBandWithUnitCorrections) {
  mathx::Rng rng(1);
  const auto sweeps = fixture_sweeps(quiet_link(), 3.0, 2, rng);
  const auto table = calibrate_from_sweeps(sweeps, 3.0);
  EXPECT_EQ(table.correction.size(), 35u);
  for (const auto& c : table.correction) {
    EXPECT_NEAR(std::abs(c), 1.0, 1e-9);
  }
  EXPECT_TRUE(table.has_toa_bias);
}

TEST(Calibration, ToaBiasCapturesDetectionPipeline) {
  mathx::Rng rng(2);
  const auto sweeps = fixture_sweeps(quiet_link(), 3.0, 4, rng);
  const auto table = calibrate_from_sweeps(sweeps, 3.0);
  // The fixture's detection delay has mean ~ pipeline + jitter mean
  // (~180 ns at high SNR); the hardware group delay (24 ns) also lands in
  // the slope. The learned bias must sit in that ballpark.
  EXPECT_GT(table.toa_bias_s, 140e-9);
  EXPECT_LT(table.toa_bias_s, 260e-9);
  EXPECT_GT(table.calibration_snr_db, 20.0);
}

TEST(Calibration, CorrectionsRotateCombinedValuesOntoIdealPhase) {
  mathx::Rng rng(3);
  auto cfg = quiet_link();
  const auto sweeps = fixture_sweeps(cfg, 3.0, 3, rng);
  const auto table = calibrate_from_sweeps(sweeps, 3.0);

  // A fresh fixture sweep, calibrated, must show the ideal direct-path
  // phase at every band.
  sim::LinkSimulator link(sim::anechoic(), cfg);
  auto tx = sim::make_mobile({0.0, 0.0}, 11);
  auto rx = sim::make_mobile({3.0, 0.0}, 22);
  const auto sweep = link.simulate_sweep(tx, 0, rx, 0, rng);
  CombiningConfig cc;
  const auto combined = combine_sweep(sweep, cc, table);
  const double u = 2.0 * mathx::distance_to_tof(3.0);
  for (const auto& cb : combined) {
    const double ideal = -mathx::kTwoPi * cb.row_freq_hz * u;
    const double err = std::remainder(std::arg(cb.value) - ideal,
                                      mathx::kTwoPi);
    EXPECT_NEAR(err, 0.0, 0.05) << "channel " << cb.band.channel;
  }
}

TEST(Calibration, RejectsBadInput) {
  EXPECT_THROW((void)calibrate_from_sweeps({}, 3.0), std::invalid_argument);
  mathx::Rng rng(4);
  const auto sweeps = fixture_sweeps(quiet_link(), 3.0, 1, rng);
  EXPECT_THROW((void)calibrate_from_sweeps(sweeps, 0.0),
               std::invalid_argument);
}

TEST(ToaGate, GateRejectsLatticeGhostsAtLongRange) {
  // Beyond ~7.5 m the -50 ns lattice ghost of the direct path lands at an
  // earlier positive delay. With the gate the pipeline must still find the
  // true distance; the same sweep without the gate is allowed to fail.
  EngineOptions with_gate;
  with_gate.ranging.use_toa_gate = true;
  auto source = std::make_shared<SimSweepSource>(sim::office_20x20(),
                                                 sim::LinkSimConfig{});
  Engine eng = Engine::adopt(source, with_gate);
  mathx::Rng rng(55);
  // One card pair (node id = hardware seed), re-registered per placement.
  source->add_node(sim::make_mobile({0.0, 0.0}, 11));
  source->add_node(sim::make_mobile({1.0, 0.0}, 22));
  ASSERT_TRUE(eng.calibrate(NodeId{11}, NodeId{22}, rng).ok());

  int good = 0, trials = 0;
  for (int i = 0; i < 6; ++i) {
    const geom::Vec2 a{2.0, 2.0 + i * 0.7};
    const geom::Vec2 b{14.0, 12.0};
    if (!sim::office_20x20().line_of_sight(a, b)) continue;
    ++trials;
    source->add_node(sim::make_mobile(a, 11));
    source->add_node(sim::make_mobile(b, 22));
    const auto r = eng.measure({{NodeId{11}, 0}, {NodeId{22}, 0}}, rng).value();
    if (std::abs(r.distance_m - geom::distance(a, b)) < 1.0) ++good;
  }
  ASSERT_GT(trials, 2);
  EXPECT_GE(good, trials - 1);  // at most one miss allowed
}

TEST(ToaGate, FallsBackGracefullyWithoutCalibration) {
  // No calibration table -> no toa bias -> ungated path must still run and
  // return a result (possibly biased by hardware constants).
  sim::LinkSimConfig cfg = quiet_link();
  cfg.enable_chain_effects = false;
  cfg.enable_detection_delay = false;
  sim::LinkSimulator link(sim::anechoic(), cfg);
  RangingConfig rc;
  rc.combining.quirk_fix = false;
  RangingPipeline pipe(link.bands(), rc);
  mathx::Rng rng(5);
  const auto sweep = link.simulate_sweep(sim::make_mobile({0.0, 0.0}), 0,
                                         sim::make_mobile({4.0, 0.0}), 0, rng);
  const auto r = pipe.estimate(sweep);  // empty calibration
  ASSERT_TRUE(r.peak_found);
  EXPECT_NEAR(r.distance_m, 4.0, 0.05);
}

TEST(Engine, CalibrationIsDeterministicGivenSeeds) {
  auto source =
      std::make_shared<SimSweepSource>(sim::anechoic(), sim::LinkSimConfig{});
  source->add_node(sim::make_mobile({0.0, 0.0}, 11));
  source->add_node(sim::make_mobile({1.0, 0.0}, 22));
  Engine a = Engine::adopt(source);
  Engine b = Engine::adopt(source);
  mathx::Rng rng_a(9), rng_b(9);
  ASSERT_TRUE(a.calibrate(NodeId{11}, NodeId{22}, rng_a).ok());
  ASSERT_TRUE(b.calibrate(NodeId{11}, NodeId{22}, rng_b).ok());
  ASSERT_EQ(a.calibration().correction.size(),
            b.calibration().correction.size());
  for (std::size_t i = 0; i < a.calibration().correction.size(); ++i) {
    EXPECT_EQ(a.calibration().correction[i], b.calibration().correction[i]);
  }
  EXPECT_EQ(a.calibration().toa_bias_s, b.calibration().toa_bias_s);
}

}  // namespace
}  // namespace chronos::core
