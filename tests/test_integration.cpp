// Cross-module integration and property tests: the invariants that make
// Chronos work, checked end-to-end through the real pipeline rather than
// unit by unit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "mathx/constants.hpp"
#include "mathx/stats.hpp"
#include "sim/scenario.hpp"

namespace chronos {
namespace {

/// A simulator engine whose node directory the test writes through
/// `source` (node id = hardware seed throughout).
struct Rig {
  std::shared_ptr<core::SimSweepSource> source;
  Engine engine;
};

Rig make_rig(sim::Environment env) {
  auto source = std::make_shared<core::SimSweepSource>(std::move(env),
                                                       sim::LinkSimConfig{});
  return {source, Engine::adopt(source)};
}

/// Registers both devices, then ranges antenna 0 of `tx` against antenna 0
/// of `rx`.
core::RangingResult measure(Rig& rig, const sim::Device& tx,
                            const sim::Device& rx, mathx::Rng& rng) {
  rig.source->add_node(tx);
  rig.source->add_node(rx);
  return rig.engine
      .measure({{NodeId{tx.hardware_seed()}, 0},
                {NodeId{rx.hardware_seed()}, 0}},
               rng)
      .value();
}

/// Registers both devices, then calibrates the pair.
void calibrate(Rig& rig, const sim::Device& tx, const sim::Device& rx,
               mathx::Rng& rng) {
  rig.source->add_node(tx);
  rig.source->add_node(rx);
  ASSERT_TRUE(rig.engine
                  .calibrate(NodeId{tx.hardware_seed()},
                             NodeId{rx.hardware_seed()}, rng)
                  .ok());
}

// Property: sweeping distance, the recovered ToF scales linearly (no
// ambiguity wraps, no systematic drift) across the gated pipeline.
class DistanceLinearity : public ::testing::TestWithParam<double> {};

TEST_P(DistanceLinearity, TofTracksDistance) {
  const double d = GetParam();
  Rig rig = make_rig(sim::anechoic());
  mathx::Rng rng(13);
  calibrate(rig, sim::make_mobile({0.0, 0.0}, 11),
            sim::make_mobile({1.0, 0.0}, 22), rng);
  const auto r = measure(rig, sim::make_mobile({0.0, 0.0}, 11),
                         sim::make_mobile({d, 0.0}, 22), rng);
  ASSERT_TRUE(r.peak_found);
  EXPECT_NEAR(r.distance_m, d, 0.05 + 0.01 * d);
}

INSTANTIATE_TEST_SUITE_P(Distances, DistanceLinearity,
                         ::testing::Values(1.0, 2.5, 4.0, 6.5, 9.0, 12.0,
                                           15.0, 18.0));

// Property: reciprocity — swapping transmitter and receiver roles yields
// the same distance (each direction is measured anyway; roles only change
// who initiates).
TEST(Integration, RoleSwapGivesSameDistance) {
  Rig rig = make_rig(sim::office_20x20());
  mathx::Rng rng(17);
  const auto a = sim::make_mobile({3.0, 4.0}, 11);
  const auto b = sim::make_mobile({8.0, 9.0}, 22);
  calibrate(rig, a, b, rng);
  const auto ab = measure(rig, a, b, rng);
  const auto ba = measure(rig, b, a, rng);
  ASSERT_TRUE(ab.peak_found);
  ASSERT_TRUE(ba.peak_found);
  EXPECT_NEAR(ab.distance_m, ba.distance_m, 0.4);
}

// Property: repeated measurements of a static link are consistent — the
// spread across sweeps is far below the absolute accuracy requirement.
TEST(Integration, RepeatedMeasurementsAreStable) {
  Rig rig = make_rig(sim::office_20x20());
  mathx::Rng rng(19);
  const auto tx = sim::make_mobile({4.0, 3.0}, 11);
  const auto rx = sim::make_mobile({9.0, 7.0}, 22);
  calibrate(rig, tx, rx, rng);
  std::vector<double> estimates;
  for (int i = 0; i < 8; ++i) {
    estimates.push_back(measure(rig, tx, rx, rng).distance_m);
  }
  EXPECT_LT(mathx::stddev(estimates), 0.15);
}

// Property: the ToF estimate never reports the detection delay — the whole
// point of §5. ToA (slope) and ToF must differ by ~the detection pipeline.
TEST(Integration, TofIsFreeOfDetectionDelay) {
  Rig rig = make_rig(sim::office_20x20());
  mathx::Rng rng(23);
  const auto tx = sim::make_mobile({3.0, 3.0}, 11);
  const auto rx = sim::make_mobile({7.0, 6.0}, 22);
  calibrate(rig, tx, rx, rng);
  const auto r = measure(rig, tx, rx, rng);
  ASSERT_TRUE(r.peak_found);
  EXPECT_LT(r.tof_s, 60e-9);        // a real indoor ToF
  EXPECT_GT(r.toa_s, 150e-9);       // raw arrival includes ~180 ns delay
  EXPECT_GT(r.detection_delay_s, 100e-9);
}

// Property: localization error grows when the receive baseline shrinks
// (paper §10) — checked end-to-end on identical placements.
TEST(Integration, SmallerBaselineIsWorse) {
  const auto scen = sim::office_testbed(42);
  double err_small_total = 0.0, err_large_total = 0.0;
  for (int trial = 0; trial < 6; ++trial) {
    mathx::Rng rng(100 + trial);
    const auto pl = scen.sample_pair_los(rng, 2.0, 10.0);
    for (const double sep : {0.15, 1.2}) {
      Rig rig = make_rig(scen.environment());
      mathx::Rng cal_rng(5);
      calibrate(rig, sim::make_mobile({0.0, 0.0}, 11),
                sim::make_laptop({1.5, 0.0}, sep, 22), cal_rng);
      rig.source->add_node(sim::make_mobile(pl.tx, 11));
      rig.source->add_node(sim::make_laptop(pl.rx, sep, 22));
      const auto out = rig.engine.locate(NodeId{11}, NodeId{22}, rng);
      ASSERT_TRUE(out.ok());
      if (!out.value().result.valid) continue;
      const double err = geom::distance(out.value().result.position, pl.tx);
      (sep < 0.5 ? err_small_total : err_large_total) += err;
    }
  }
  EXPECT_GT(err_small_total, err_large_total);
}

// Property: every profile the pipeline produces on real workloads is
// sparse in the paper's sense (a handful of dominant peaks, not a smear).
TEST(Integration, ProfilesStaySparse) {
  const auto scen = sim::office_testbed(42);
  Rig rig = make_rig(scen.environment());
  mathx::Rng rng(29);
  calibrate(rig, sim::make_mobile({0.0, 0.0}, 11),
            sim::make_mobile({1.0, 0.0}, 22), rng);
  for (int i = 0; i < 6; ++i) {
    const auto pl = scen.sample_pair(rng, 1.0, 12.0);
    const auto r = measure(rig, sim::make_mobile(pl.tx, 11),
                           sim::make_mobile(pl.rx, 22), rng);
    const auto dominant = core::dominant_peak_count(r.profile, 0.2);
    EXPECT_GE(dominant, 1u);
    EXPECT_LE(dominant, 16u);
  }
}

// ---- Metamorphic accuracy oracles ----------------------------------------
//
// The goldens compare the pipeline with its own past output, so they catch
// drift, not error. These oracles transform a sweep in ways that leave the
// true time of flight unchanged, or shift it by a known delay, and require
// the estimate to follow within 1e-3 ns, with the same status and peak
// decision.

/// Sweeps of 40 office_testbed(42) links 1-15 m apart (single-antenna
/// mobiles) captured through an engine calibrated with Engine::calibrate,
/// with that engine's band plan and calibration table.
struct OfficeSweeps {
  std::vector<phy::WifiBand> bands;
  core::CalibrationTable calibration;
  std::vector<phy::SweepMeasurement> sweeps;
};

OfficeSweeps office_sweeps() {
  const auto scen = sim::office_testbed(42);
  Rig rig = make_rig(scen.environment());
  mathx::Rng rng(31);
  calibrate(rig, sim::make_mobile({0.0, 0.0}, 11),
            sim::make_mobile({1.0, 0.0}, 22), rng);
  OfficeSweeps out{rig.source->bands(), rig.engine.calibration(), {}};
  for (int i = 0; i < 40; ++i) {
    const auto pl = scen.sample_pair(rng, 1.0, 15.0);
    rig.source->add_node(sim::make_mobile(pl.tx, 11));
    rig.source->add_node(sim::make_mobile(pl.rx, 22));
    out.sweeps.push_back(
        rig.engine.capture_sweep({{NodeId{11}, 0}, {NodeId{22}, 0}}, rng)
            .value());
  }
  return out;
}

void expect_same_tof(const core::RangingResult& want,
                     const core::RangingResult& got) {
  EXPECT_EQ(got.status.code(), want.status.code()) << got.status.to_string();
  EXPECT_EQ(got.peak_found, want.peak_found);
  EXPECT_NEAR(got.tof_s, want.tof_s, 1e-12);
}

// Oracle: the band AGC normalises each capture by its own RMS, so scaling
// every CSI value of a sweep by one positive constant changes no ToF.
TEST(Oracle, ScalingTheCsiLeavesTheTofUnchanged) {
  const OfficeSweeps office = office_sweeps();
  const core::RangingPipeline pipeline(office.bands);
  for (std::size_t i = 0; i < office.sweeps.size(); ++i) {
    const auto want = pipeline.estimate(office.sweeps[i], office.calibration);
    ASSERT_TRUE(want.status.ok()) << want.status.to_string();
    for (const double c : {1e-3, 0.5, 3.7}) {
      SCOPED_TRACE(testing::Message() << "link " << i << ", scale " << c);
      phy::SweepMeasurement scaled = office.sweeps[i];
      for (auto& captures : scaled.bands) {
        for (auto& cap : captures) {
          for (auto& v : cap.forward.values) v *= c;
          for (auto& v : cap.reverse.values) v *= c;
        }
      }
      expect_same_tof(want, pipeline.estimate(scaled, office.calibration));
    }
  }
}

// Oracle: the estimate is a function of the set of (band, capture,
// correction) triples, not of their order. Reordering the sweep's bands,
// the pipeline's band plan and the calibration corrections together
// changes no ToF.
TEST(Oracle, PermutingTheBandsLeavesTheTofUnchanged) {
  const OfficeSweeps office = office_sweeps();
  const core::RangingPipeline pipeline(office.bands);
  const std::size_t n = office.bands.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::vector<std::size_t>> permutations = {
      {order.rbegin(), order.rend()}};
  mathx::Rng rng(37);
  for (int s = 0; s < 2; ++s) {
    for (std::size_t j = n - 1; j > 0; --j) {
      const auto k =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(j)));
      std::swap(order[j], order[k]);
    }
    permutations.push_back(order);
  }

  for (std::size_t p = 0; p < permutations.size(); ++p) {
    const std::vector<std::size_t>& perm = permutations[p];
    std::vector<phy::WifiBand> bands;
    core::CalibrationTable calibration = office.calibration;
    calibration.correction.clear();
    for (const std::size_t k : perm) {
      bands.push_back(office.bands[k]);
      calibration.correction.push_back(office.calibration.correction[k]);
    }
    const core::RangingPipeline permuted(bands);
    for (std::size_t i = 0; i < office.sweeps.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "permutation " << p << ", link "
                                      << i);
      const auto want =
          pipeline.estimate(office.sweeps[i], office.calibration);
      ASSERT_TRUE(want.status.ok()) << want.status.to_string();
      phy::SweepMeasurement sweep = office.sweeps[i];
      for (std::size_t j = 0; j < n; ++j) {
        sweep.bands[j] = office.sweeps[i].bands[perm[j]];
      }
      expect_same_tof(want, permuted.estimate(sweep, calibration));
    }
  }
}

// Oracle: delaying every path by delta multiplies each CSI value, forward
// and reverse, by e^{-j 2 pi f delta} at its subcarrier's frequency f, so
// the ToF moves by exactly delta.
TEST(Oracle, DelayingEveryPathShiftsTheTofByTheDelay) {
  const OfficeSweeps office = office_sweeps();
  const core::RangingPipeline pipeline(office.bands);
  for (std::size_t i = 0; i < office.sweeps.size(); ++i) {
    const auto want = pipeline.estimate(office.sweeps[i], office.calibration);
    ASSERT_TRUE(want.status.ok()) << want.status.to_string();
    for (const double delta : {-0.8e-9, 0.37e-9, 2.5e-9, 7.0e-9}) {
      SCOPED_TRACE(testing::Message() << "link " << i << ", delay " << delta);
      phy::SweepMeasurement delayed = office.sweeps[i];
      for (auto& captures : delayed.bands) {
        for (auto& cap : captures) {
          for (phy::CsiMeasurement* m : {&cap.forward, &cap.reverse}) {
            for (std::size_t k = 0; k < m->values.size(); ++k) {
              m->values[k] *=
                  std::polar(1.0, -mathx::kTwoPi * m->frequency_at(k) * delta);
            }
          }
        }
      }
      core::RangingResult shifted = want;
      shifted.tof_s += delta;
      expect_same_tof(shifted, pipeline.estimate(delayed, office.calibration));
    }
  }
}

}  // namespace
}  // namespace chronos
