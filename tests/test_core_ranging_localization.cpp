#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/calibration.hpp"
#include "core/localization.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "sim/link.hpp"
#include "sim/scenario.hpp"

namespace chronos::core {
namespace {

/// A simulator engine whose node directory the test writes through
/// `source` (node id = hardware seed throughout).
struct Rig {
  std::shared_ptr<SimSweepSource> source;
  Engine engine;
};

Rig make_rig(sim::Environment env, const sim::LinkSimConfig& link = {},
             const RangingConfig& ranging = {}) {
  auto source = std::make_shared<SimSweepSource>(std::move(env), link);
  return {source, Engine::adopt(source, {.ranging = ranging})};
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

/// Registers both devices, then ranges antenna 0 against antenna 0.
RangingResult measure(Rig& rig, const sim::Device& tx, const sim::Device& rx,
                      mathx::Rng& rng) {
  rig.source->add_node(tx);
  rig.source->add_node(rx);
  return rig.engine
      .measure({{NodeId{tx.hardware_seed()}, 0},
                {NodeId{rx.hardware_seed()}, 0}},
               rng)
      .value();
}

sim::LinkSimConfig ideal_link() {
  sim::LinkSimConfig c;
  c.enable_noise = false;
  c.enable_detection_delay = false;
  c.enable_cfo = false;
  c.enable_lo_phase = false;
  c.enable_chain_effects = false;
  c.enable_quirk = false;
  c.exchanges_per_band = 1;
  c.propagation.include_scatterers = false;
  return c;
}

TEST(Ranging, IdealAnechoicIsExact) {
  sim::LinkSimulator link(sim::anechoic(), ideal_link());
  RangingConfig rc;
  rc.combining.quirk_fix = false;
  RangingPipeline pipe(link.bands(), rc);
  mathx::Rng rng(1);
  const auto sweep = link.simulate_sweep(sim::make_mobile({0.0, 0.0}), 0,
                                         sim::make_mobile({6.0, 0.0}), 0, rng);
  const auto r = pipe.estimate(sweep);
  ASSERT_TRUE(r.peak_found);
  EXPECT_NEAR(r.distance_m, 6.0, 1e-3);
  EXPECT_NEAR(r.tof_s, 6.0 / 299792458.0, 1e-14 + 3e-12);
}

TEST(Ranging, IdealOfficeMultipathFindsDirectPath) {
  sim::LinkSimulator link(sim::office_20x20(), ideal_link());
  RangingConfig rc;
  rc.combining.quirk_fix = false;
  RangingPipeline pipe(link.bands(), rc);
  mathx::Rng rng(1);
  const auto sweep = link.simulate_sweep(sim::make_mobile({3.0, 3.0}), 0,
                                         sim::make_mobile({8.0, 6.0}), 0, rng);
  const auto r = pipe.estimate(sweep);
  ASSERT_TRUE(r.peak_found);
  EXPECT_NEAR(r.distance_m, std::hypot(5.0, 3.0), 0.05);
}

TEST(Ranging, FullImpairmentsWithCalibrationInOffice) {
  Rig rig = make_rig(sim::office_20x20());
  mathx::Rng rng(7);
  calibrate(rig, sim::make_mobile({0.0, 0.0}, 11),
            sim::make_mobile({1.0, 0.0}, 22), rng);

  const auto r = measure(rig, sim::make_mobile({3.0, 3.0}, 11),
                         sim::make_mobile({8.0, 6.0}, 22), rng);
  ASSERT_TRUE(r.peak_found);
  EXPECT_NEAR(r.distance_m, std::hypot(5.0, 3.0), 0.5);
  // Detection delay estimate lands in the Fig 7c ballpark.
  EXPECT_GT(r.detection_delay_s, 120e-9);
  EXPECT_LT(r.detection_delay_s, 320e-9);
}

TEST(Ranging, CandidatesAuditTrailIsPopulated) {
  Rig rig = make_rig(sim::office_20x20());
  mathx::Rng rng(7);
  calibrate(rig, sim::make_mobile({0.0, 0.0}, 11),
            sim::make_mobile({1.0, 0.0}, 22), rng);
  const auto r = measure(rig, sim::make_mobile({3.0, 3.0}, 11),
                         sim::make_mobile({7.0, 5.0}, 22), rng);
  ASSERT_TRUE(r.peak_found);
  ASSERT_FALSE(r.candidates.empty());
  std::size_t accepted = 0;
  for (const auto& c : r.candidates) accepted += c.accepted ? 1 : 0;
  EXPECT_EQ(accepted, 1u);
}

TEST(Ranging, UncalibratedHardwareBiasesDistance) {
  sim::LinkSimConfig link_cfg = ideal_link();
  link_cfg.enable_chain_effects = true;  // hardware delay present
  sim::LinkSimulator link(sim::anechoic(), link_cfg);
  RangingConfig rc;
  rc.combining.quirk_fix = false;
  rc.use_toa_gate = false;
  RangingPipeline pipe(link.bands(), rc);
  mathx::Rng rng(1);
  const auto sweep = link.simulate_sweep(sim::make_mobile({0.0, 0.0}), 0,
                                         sim::make_mobile({6.0, 0.0}), 0, rng);
  const auto r = pipe.estimate(sweep);
  ASSERT_TRUE(r.peak_found);
  // 24 ns of chain delay = ~7.2 m of bias without calibration.
  EXPECT_GT(r.distance_m, 9.0);
}

/// Adopts an anechoic backend simulating `link` (quirk fix and ToA gate
/// off), calibrates the 11/22 pair on it, then ranges a 6 m link.
double calibrated_6m_distance(const sim::LinkSimConfig& link) {
  RangingConfig rc;
  rc.combining.quirk_fix = false;
  rc.use_toa_gate = false;
  Rig rig = make_rig(sim::anechoic(), link, rc);
  mathx::Rng rng(2);
  calibrate(rig, sim::make_mobile({0.0, 0.0}, 11),
            sim::make_mobile({1.0, 0.0}, 22), rng);
  return measure(rig, sim::make_mobile({0.0, 0.0}, 11),
                 sim::make_mobile({6.0, 0.0}, 22), rng)
      .distance_m;
}

TEST(Ranging, CalibrationRemovesHardwareBias) {
  sim::LinkSimConfig link_cfg = ideal_link();
  link_cfg.enable_chain_effects = true;
  EXPECT_NEAR(calibrated_6m_distance(link_cfg), 6.0, 0.05);
}

TEST(Ranging, AdoptedEngineCalibratesOnTheBackendsModel) {
  // The calibration fixture must sweep with the backend's own simulator
  // model: calibrating this impairment-free backend on the stock model
  // bakes the stock radio impairments into the table and ranges the 6 m
  // link at about 21.3 m.
  EXPECT_NEAR(calibrated_6m_distance(ideal_link()), 6.0, 0.05);
}

TEST(Ranging, MismatchedSweepRejectedByGate) {
  sim::LinkSimulator link(sim::anechoic(), ideal_link());
  RangingPipeline pipe(link.bands(), {});
  phy::SweepMeasurement wrong;
  wrong.bands.resize(3);
  // The structural screen (always on) turns what used to be a thrown
  // invalid_argument into a typed per-request rejection: one truncated
  // sweep in a batch must not abort its neighbours.
  const auto result = pipe.estimate(wrong);
  EXPECT_EQ(result.status.code(), chronos::StatusCode::kMalformedSweep);
  EXPECT_FALSE(result.peak_found);

  // The same contract through estimate_batch: each truncated slot is
  // rejected on its own, and each good slot equals a standalone estimate
  // of its sweep bit for bit.
  mathx::Rng rng(3);
  const auto good_a = link.simulate_sweep(sim::make_mobile({0.0, 0.0}), 0,
                                          sim::make_mobile({4.0, 0.0}), 0, rng);
  const auto good_b = link.simulate_sweep(sim::make_mobile({0.0, 0.0}), 0,
                                          sim::make_mobile({0.0, 7.0}), 0, rng);
  const std::vector<phy::SweepMeasurement> mixed = {good_a, wrong, good_b};
  const auto batch = pipe.estimate_batch(mixed);
  ASSERT_EQ(batch.size(), mixed.size());
  EXPECT_EQ(batch[1].status.code(), chronos::StatusCode::kMalformedSweep);
  EXPECT_EQ(batch[1].solver_iterations, 0);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("slot " + std::to_string(i));
    const auto want = pipe.estimate(mixed[i]);
    ASSERT_TRUE(batch[i].status.ok());
    EXPECT_GT(batch[i].solver_iterations, 0);
    EXPECT_EQ(batch[i].tof_s, want.tof_s);
    EXPECT_EQ(batch[i].distance_m, want.distance_m);
    EXPECT_EQ(batch[i].solver_iterations, want.solver_iterations);
    ASSERT_EQ(batch[i].candidates.size(), want.candidates.size());
    for (std::size_t k = 0; k < want.candidates.size(); ++k) {
      EXPECT_EQ(batch[i].candidates[k].delay_s, want.candidates[k].delay_s);
      EXPECT_EQ(batch[i].candidates[k].amplitude,
                want.candidates[k].amplitude);
      EXPECT_EQ(batch[i].candidates[k].matched_filter,
                want.candidates[k].matched_filter);
      EXPECT_EQ(batch[i].candidates[k].accepted, want.candidates[k].accepted);
    }
  }

  // All-rejected and empty batches return without solving.
  const std::vector<phy::SweepMeasurement> all_wrong = {wrong, wrong};
  const auto rejected = pipe.estimate_batch(all_wrong);
  ASSERT_EQ(rejected.size(), all_wrong.size());
  for (const auto& r : rejected) {
    EXPECT_EQ(r.status.code(), chronos::StatusCode::kMalformedSweep);
    EXPECT_EQ(r.solver_iterations, 0);
    EXPECT_FALSE(r.peak_found);
  }
  EXPECT_TRUE(pipe.estimate_batch({}).empty());
}

// --- localization -----------------------------------------------------

TEST(Localization, OutlierRejectionKeepsConsistentSet) {
  const std::vector<geom::Vec2> anchors = {
      {0.0, 0.0}, {0.3, 0.0}, {0.15, -0.12}};
  const std::vector<double> good = {5.0, 4.9, 5.05};
  const auto used = reject_outliers(anchors, good, 0.35);
  EXPECT_EQ(std::count(used.begin(), used.end(), true), 3);
}

TEST(Localization, OutlierRejectionDropsGeometryViolator) {
  const std::vector<geom::Vec2> anchors = {
      {0.0, 0.0}, {0.3, 0.0}, {0.15, -0.12}};
  // Third distance differs by 3 m from the others across a 15 cm baseline.
  const std::vector<double> bad = {5.0, 4.95, 8.0};
  const auto used = reject_outliers(anchors, bad, 0.35);
  EXPECT_TRUE(used[0]);
  EXPECT_TRUE(used[1]);
  EXPECT_FALSE(used[2]);
}

TEST(Localization, ExactThreeAnchorPosition) {
  const std::vector<geom::Vec2> anchors = {
      {0.0, 0.0}, {1.0, 0.0}, {0.5, -0.4}};
  const geom::Vec2 truth{4.0, 6.0};
  std::vector<double> d;
  for (const auto& a : anchors) d.push_back(geom::distance(a, truth));
  const auto r = localize(anchors, d);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.used_count, 3u);
  EXPECT_LT(geom::distance(r.position, truth), 1e-5);
}

TEST(Localization, TwoAnchorsUseHintForMirrorDisambiguation) {
  const std::vector<geom::Vec2> anchors = {{0.0, 0.0}, {1.0, 0.0}};
  const geom::Vec2 truth{0.5, 3.0};
  std::vector<double> d;
  for (const auto& a : anchors) d.push_back(geom::distance(a, truth));
  const auto with_hint = localize(anchors, d, geom::Vec2{0.4, 2.0});
  EXPECT_LT(geom::distance(with_hint.position, truth), 1e-5);
  const auto wrong_hint = localize(anchors, d, geom::Vec2{0.4, -2.0});
  EXPECT_LT(geom::distance(wrong_hint.position, geom::Vec2{0.5, -3.0}), 1e-5);
}

/// fig8b's NLOS job 12 (office_testbed(42), 3-antenna laptops 30 cm
/// wide): the nine pair ranges of Engine::locate, tx-major, to the
/// receiver's antennas 0, 1, 2. Outlier rejection keeps ranges 0, 1, 3, 6
/// and 7, all to antennas 0 and 1, which lie on one horizontal baseline.
struct CollinearJob {
  std::vector<geom::Vec2> anchors;
  std::vector<double> distances;
};

CollinearJob fig8b_nlos_job12() {
  const geom::Vec2 rx[3] = {{0x1.d6c7072662c44p+3, 0x1.209d31865d67ep+3},
                            {0x1.e060a0bffc5dep+3, 0x1.209d31865d67ep+3},
                            {0x1.db93d3f32f911p+3, 0x1.1cc62748ecc41p+3}};
  CollinearJob job;
  job.distances = {0x1.dcaf5957c4f4ep+3, 0x1.d9703d0597b92p+3,
                   0x1.6eda0da0b6482p+3, 0x1.d1c70892433bfp+3,
                   0x1.51a367bf29c15p+3, 0x1.efa2dd50dda37p+3,
                   0x1.d4e3ab0dcb952p+3, 0x1.de5be7a516bd1p+3,
                   0x1.097e0cd73802ap+4};
  for (std::size_t k = 0; k < job.distances.size(); ++k) {
    job.anchors.push_back(rx[k % 3]);
  }
  return job;
}

TEST(Localization, CollinearSurvivorsPickTheMirrorSideByRule) {
  // Five ranges from two anchors fit a position and its mirror image
  // equally well. A pick by lowest residual follows the rounding: moving
  // one range by 1e-9 to 1e-7 m sent this fix 24 m across the baseline in
  // 9 of these 30 tries. The side must be a rule of the geometry instead.
  CollinearJob job = fig8b_nlos_job12();
  const auto base = localize(job.anchors, job.distances);
  ASSERT_TRUE(base.valid);
  ASSERT_EQ(base.used_count, 5u);
  for (std::size_t k = 0; k < job.anchors.size(); ++k) {
    EXPECT_EQ(base.used[k], k % 3 != 2 && k != 4) << "range " << k;
  }
  // No hint: the positive cross side of the baseline from the first
  // surviving anchor (antenna 0) to the next (antenna 1), i.e. above it.
  EXPECT_GT(base.position.y, job.anchors[0].y);

  const std::size_t survivors[] = {0, 1, 3, 6, 7};
  int moved = 0;
  for (int t = 0; t < 30; ++t) {
    const std::size_t k = survivors[t % 5];
    const double delta = (t % 2 == 0 ? 1.0 : -1.0) * 1e-9 *
                         std::pow(100.0, static_cast<double>(t) / 29.0);
    CollinearJob nudged = job;
    nudged.distances[k] += delta;
    const auto r = localize(nudged.anchors, nudged.distances);
    ASSERT_EQ(r.used, base.used);
    // A 1e-7 m range change moves the least-squares fit by micrometres;
    // a mirror flip moves it by twice its distance from the baseline.
    if (geom::distance(r.position, base.position) > 1e-3) ++moved;
  }
  EXPECT_EQ(moved, 0) << "of 30 perturbed fixes jumped";

  // A hint below the baseline picks the mirror image.
  const geom::Vec2 below{base.position.x,
                         2.0 * job.anchors[0].y - base.position.y};
  const auto hinted = localize(job.anchors, job.distances, below);
  EXPECT_LT(geom::distance(hinted.position, below), 1e-3);
  EXPECT_NEAR(hinted.residual_rms_m, base.residual_rms_m, 1e-9);
}

TEST(Localization, RejectsDegenerateInput) {
  const std::vector<geom::Vec2> one_anchor = {{0.0, 0.0}};
  const std::vector<double> one = {2.0};
  EXPECT_THROW((void)localize(one_anchor, one), std::invalid_argument);
  const std::vector<geom::Vec2> anchors = {{0.0, 0.0}, {1.0, 0.0}};
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW((void)localize(anchors, negative), std::invalid_argument);
}

TEST(Localization, EngineLocateEndToEnd) {
  Rig rig = make_rig(sim::office_20x20());
  mathx::Rng rng(21);
  calibrate(rig, sim::make_mobile({0.0, 0.0}, 11),
            sim::make_laptop({1.0, 0.0}, 0.3, 22), rng);
  const geom::Vec2 truth{4.0, 4.0};
  rig.source->add_node(sim::make_mobile(truth, 11));
  rig.source->add_node(sim::make_laptop({9.0, 7.0}, 0.3, 22));
  const auto located = rig.engine.locate(NodeId{11}, NodeId{22}, rng);
  ASSERT_TRUE(located.ok());
  const auto& out = located.value();
  ASSERT_TRUE(out.result.valid);
  EXPECT_EQ(out.antenna_distances_m.size(), 3u);
  EXPECT_LT(geom::distance(out.result.position, truth), 2.5);
}

TEST(Localization, EngineLocateNeedsMultiAntennaReceiver) {
  Rig rig = make_rig(sim::anechoic());
  rig.source->add_node(sim::make_mobile({0.0, 0.0}, 1));
  rig.source->add_node(sim::make_mobile({1.0, 0.0}, 2));
  mathx::Rng rng(1);
  EXPECT_EQ(rig.engine.locate(NodeId{1}, NodeId{2}, rng).status().code(),
            chronos::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace chronos::core
