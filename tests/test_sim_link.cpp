#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/subcarrier_interp.hpp"
#include "mathx/constants.hpp"
#include "sim/link.hpp"
#include "sim/scenario.hpp"

namespace chronos::sim {
namespace {

LinkSimConfig ideal_config() {
  LinkSimConfig c;
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

TEST(LinkSim, SweepCoversAllBandsWithRequestedExchanges) {
  auto cfg = ideal_config();
  cfg.exchanges_per_band = 3;
  LinkSimulator sim(anechoic(), cfg);
  const auto tx = make_mobile({0.0, 0.0});
  const auto rx = make_mobile({4.0, 0.0});
  mathx::Rng rng(1);
  const auto sweep = sim.simulate_sweep(tx, 0, rx, 0, rng);
  EXPECT_EQ(sweep.band_count(), 35u);
  for (const auto& caps : sweep.bands) {
    EXPECT_EQ(caps.size(), 3u);
    for (const auto& cap : caps) {
      EXPECT_EQ(cap.forward.values.size(), 30u);
      EXPECT_LT(cap.forward.timestamp_s, cap.reverse.timestamp_s);
    }
  }
}

TEST(LinkSim, IdealForwardCsiMatchesTrueChannel) {
  LinkSimulator sim(anechoic(), ideal_config());
  const auto tx = make_mobile({0.0, 0.0});
  const auto rx = make_mobile({5.0, 0.0});
  mathx::Rng rng(1);
  const auto sweep = sim.simulate_sweep(tx, 0, rx, 0, rng);
  const auto paths = sim.paths_between(tx, 0, rx, 0);
  for (const auto& caps : sweep.bands) {
    const auto& m = caps[0].forward;
    for (std::size_t k = 0; k < m.values.size(); ++k) {
      const auto expect = channel_at(paths, m.frequency_at(k));
      EXPECT_NEAR(std::abs(m.values[k] - expect), 0.0, 1e-12);
    }
  }
}

TEST(LinkSim, ReciprocityHoldsWithoutImpairments) {
  LinkSimulator sim(anechoic(), ideal_config());
  const auto tx = make_mobile({0.0, 0.0});
  const auto rx = make_mobile({5.0, 0.0});
  mathx::Rng rng(1);
  const auto sweep = sim.simulate_sweep(tx, 0, rx, 0, rng);
  for (const auto& caps : sweep.bands) {
    for (std::size_t k = 0; k < 30; ++k) {
      EXPECT_NEAR(std::abs(caps[0].forward.values[k] -
                           caps[0].reverse.values[k]),
                  0.0, 1e-12);
    }
  }
}

// Office links with dozens of paths, the default three exchanges per band
// and chain effects on: with the random per-packet impairments off, every
// exchange on a band must carry that band's channel, rotated by the chains'
// group delay (and, reverse only, kappa).
//
// The simulator and the channel_at reference evaluate the same sum in
// different orders, so they agree to their rounding, not bitwise. Each
// term's phase argument reaches phi_max = 2 pi f_max (tau_max + hw_delay),
// thousands of radians on office links, and carries a relative rounding of
// a few eps in both evaluations; summing P terms adds a few eps per term.
// So a value may miss the reference by up to 4 eps (phi_max + P) sum_p
// |a_p|. A bound relative to each value would be tighter than that
// rounding at a fade, where |h| falls far below sum_p |a_p|.
TEST(LinkSim, MultipathExchangesShareTheBandChannel) {
  LinkSimConfig cfg;
  cfg.enable_noise = false;
  cfg.enable_detection_delay = false;
  cfg.enable_cfo = false;
  cfg.enable_lo_phase = false;
  cfg.enable_quirk = false;
  const auto scen = office_testbed();
  LinkSimulator sim(scen.environment(), cfg);
  // The full US plan, so sweep band b has chain-ripple index b.
  ASSERT_EQ(sim.bands().size(), phy::us_band_plan().size());

  // 9 LOS then 8 NLOS spot pairs 1-15 m apart, each with 15 or more paths.
  mathx::Rng pair_rng(4);
  std::vector<Placement> links;
  while (links.size() < 17) {
    const auto p = links.size() < 9
                       ? scen.sample_pair_los(pair_rng, 1.0, 15.0)
                       : scen.sample_pair_nlos(pair_rng, 1.0, 15.0);
    const auto paths =
        sim.paths_between(make_mobile(p.tx), 0, make_mobile(p.rx), 0);
    if (paths.size() >= 15) links.push_back(p);
  }

  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const double hw_delay = kHardwareDelayS + kHardwareDelayS;
  mathx::Rng rng(9);
  std::size_t checked = 0;
  // Smallest ratio, over every value, of the change that moving the
  // strongest path by 1 fs makes to the reference, to the bound.
  double min_shift_over_bound = std::numeric_limits<double>::infinity();
  for (const auto& link : links) {
    const auto tx = make_mobile(link.tx, 3);
    const auto rx = make_mobile(link.rx, 4);
    const auto paths = sim.paths_between(tx, 0, rx, 0);
    const auto sweep = sim.simulate_sweep(tx, 0, rx, 0, rng);
    ASSERT_EQ(sweep.band_count(), sim.bands().size());

    double f_max = 0.0;
    for (const auto& caps : sweep.bands) {
      for (std::size_t k = 0; k < caps.front().forward.values.size(); ++k) {
        f_max = std::max(f_max, caps.front().forward.frequency_at(k));
      }
    }
    double tau_max = 0.0;
    double sum_gain = 0.0;
    for (const auto& p : paths) {
      tau_max = std::max(tau_max, p.delay_s);
      sum_gain += std::abs(p.gain);
    }
    const double phi_max = mathx::kTwoPi * f_max * (tau_max + hw_delay);
    const double bound =
        4.0 * kEps * (phi_max + static_cast<double>(paths.size())) * sum_gain;

    auto shifted = paths;
    const auto strongest = std::max_element(
        shifted.begin(), shifted.end(),
        [](const PathComponent& a, const PathComponent& b) {
          return std::norm(a.gain) < std::norm(b.gain);
        });
    strongest->delay_s += 1e-15;

    for (std::size_t b = 0; b < sweep.band_count(); ++b) {
      const auto kappa =
          std::polar(1.0, tx.chain_ripple_rad(b) + rx.chain_ripple_rad(b));
      ASSERT_EQ(sweep.bands[b].size(), 3u);
      for (std::size_t k = 0; k < phy::kIntel5300Subcarriers; ++k) {
        const double f = sweep.bands[b].front().forward.frequency_at(k);
        const auto hw_rot = std::polar(1.0, -mathx::kTwoPi * f * hw_delay);
        const auto fwd = channel_at(paths, f) * hw_rot;
        const auto rev = fwd * kappa;
        for (const auto& cap : sweep.bands[b]) {
          EXPECT_LE(std::abs(cap.forward.values[k] - fwd), bound)
              << "band " << b << " subcarrier " << k;
          EXPECT_LE(std::abs(cap.reverse.values[k] - rev), bound)
              << "band " << b << " subcarrier " << k;
          ++checked;
        }
        min_shift_over_bound =
            std::min(min_shift_over_bound,
                     std::abs(channel_at(shifted, f) * hw_rot - fwd) / bound);
      }
    }
  }
  EXPECT_EQ(checked, links.size() * 35u * 3u * 30u);
  // The bound still sees a 1 fs error in one path on every value.
  EXPECT_GT(min_shift_over_bound, 1.0);
}

TEST(LinkSim, LoPhaseCorruptsOneWayButCancelsInProduct) {
  auto cfg = ideal_config();
  cfg.enable_lo_phase = true;
  LinkSimulator sim(anechoic(), cfg);
  const auto tx = make_mobile({0.0, 0.0});
  const auto rx = make_mobile({5.0, 0.0});
  mathx::Rng rng(7);
  const auto sweep = sim.simulate_sweep(tx, 0, rx, 0, rng);
  const auto paths = sim.paths_between(tx, 0, rx, 0);

  double max_oneway_err = 0.0;
  double max_product_err = 0.0;
  for (const auto& caps : sweep.bands) {
    const auto& fwd = caps[0].forward;
    const auto& rev = caps[0].reverse;
    const auto truth = channel_at(paths, fwd.band.center_freq_hz);
    const auto fwd0 = core::interpolate_to_center(fwd).zero_subcarrier;
    const auto rev0 = core::interpolate_to_center(rev).zero_subcarrier;
    max_oneway_err = std::max(
        max_oneway_err, std::abs(std::arg(fwd0 * std::conj(truth))));
    // Product phase must equal the squared channel phase.
    max_product_err = std::max(
        max_product_err,
        std::abs(std::arg(fwd0 * rev0 * std::conj(truth * truth))));
  }
  EXPECT_GT(max_oneway_err, 0.5);      // one-way is scrambled
  EXPECT_LT(max_product_err, 1e-6);    // two-way product is clean
}

TEST(LinkSim, DetectionDelayLeavesZeroSubcarrierIntact) {
  auto cfg = ideal_config();
  cfg.enable_detection_delay = true;
  LinkSimulator sim(anechoic(), cfg);
  const auto tx = make_mobile({0.0, 0.0});
  const auto rx = make_mobile({5.0, 0.0});
  mathx::Rng rng(3);
  const auto sweep = sim.simulate_sweep(tx, 0, rx, 0, rng);
  const auto paths = sim.paths_between(tx, 0, rx, 0);
  const double tof = paths[0].delay_s;

  for (const auto& caps : sweep.bands) {
    const auto& fwd = caps[0].forward;
    const auto truth = channel_at(paths, fwd.band.center_freq_hz);
    const auto interp = core::interpolate_to_center(fwd);
    // Zero subcarrier: phase error stays tiny despite ~200 ns delay.
    EXPECT_LT(std::abs(std::arg(interp.zero_subcarrier * std::conj(truth))),
              1e-6);
    // The ToA slope reveals tof + delta, which is >> tof.
    EXPECT_GT(interp.toa_slope_s, tof + 100e-9);
  }
}

TEST(LinkSim, NoiseScalesWithDistance) {
  auto cfg = ideal_config();
  cfg.enable_noise = true;
  LinkSimulator sim(anechoic(), cfg);
  mathx::Rng rng(5);
  const auto tx = make_mobile({0.0, 0.0});
  const auto near_sweep =
      sim.simulate_sweep(tx, 0, make_mobile({2.0, 0.0}), 0, rng);
  const auto far_sweep =
      sim.simulate_sweep(tx, 0, make_mobile({14.0, 0.0}), 0, rng);
  EXPECT_GT(near_sweep.bands[0][0].forward.snr_db,
            far_sweep.bands[0][0].forward.snr_db + 15.0);
}

TEST(LinkSim, QuirkRotates24GHzByQuadrants) {
  auto cfg = ideal_config();
  cfg.enable_quirk = true;
  LinkSimulator sim(anechoic(), cfg);
  const auto tx = make_mobile({0.0, 0.0});
  const auto rx = make_mobile({5.0, 0.0});
  mathx::Rng rng(11);
  const auto sweep = sim.simulate_sweep(tx, 0, rx, 0, rng);
  const auto paths = sim.paths_between(tx, 0, rx, 0);
  for (const auto& caps : sweep.bands) {
    const auto& fwd = caps[0].forward;
    const auto truth = channel_at(paths, fwd.band.center_freq_hz);
    const auto fwd0 = core::interpolate_to_center(fwd).zero_subcarrier;
    const double err = std::arg(fwd0 * std::conj(truth));
    if (fwd.band.is_2_4ghz()) {
      // Error is a multiple of pi/2.
      const double quad = err / (mathx::kPi / 2.0);
      EXPECT_NEAR(quad, std::round(quad), 1e-6);
    } else {
      EXPECT_NEAR(err, 0.0, 1e-9);
    }
  }
}

TEST(LinkSim, InvalidAntennaIndexThrows) {
  LinkSimulator sim(anechoic(), ideal_config());
  mathx::Rng rng(1);
  const auto tx = make_mobile({0.0, 0.0});
  const auto rx = make_mobile({5.0, 0.0});
  EXPECT_THROW((void)sim.simulate_sweep(tx, 1, rx, 0, rng),
               std::invalid_argument);
}

TEST(LinkSim, BandSubsetConfigRespected) {
  auto cfg = ideal_config();
  cfg.bands = phy::bands_5ghz();
  LinkSimulator sim(anechoic(), cfg);
  mathx::Rng rng(1);
  const auto sweep = sim.simulate_sweep(make_mobile({0.0, 0.0}), 0,
                                        make_mobile({3.0, 0.0}), 0, rng);
  EXPECT_EQ(sweep.band_count(), 24u);
}

}  // namespace
}  // namespace chronos::sim
