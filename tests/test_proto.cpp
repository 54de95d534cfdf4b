#include <gtest/gtest.h>

#include <vector>

#include "mathx/stats.hpp"
#include "proto/hopping.hpp"

namespace chronos::proto {
namespace {

TEST(Hopping, LosslessSweepTimeIsDeterministic) {
  HoppingConfig cfg;
  cfg.loss_probability = 0.0;
  mathx::Rng rng(1);
  const auto stats = simulate_sweep(cfg, rng);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.bands_visited, 35u);
  EXPECT_EQ(stats.retransmissions, 0u);
  EXPECT_EQ(stats.control_packets, 34u);
  // 35 dwells + 34 * (2 packets + retune).
  const double expect =
      35 * cfg.dwell_time_s + 34 * (2 * kPacketTimeS + kRetuneTimeS);
  EXPECT_NEAR(stats.total_time_s, expect, 1e-12);
}

TEST(Hopping, MedianSweepTimeMatchesPaper) {
  // Paper Fig 9a: median hop-over-all-bands time of 84 ms.
  HoppingConfig cfg;
  mathx::Rng rng(7);
  const auto times = sweep_time_distribution(cfg, 300, rng);
  const double med = mathx::median(times);
  EXPECT_GT(med, 78e-3);
  EXPECT_LT(med, 92e-3);
}

TEST(Hopping, LossAddsRetransmissionsAndTail) {
  HoppingConfig heavy;
  heavy.loss_probability = 0.25;
  mathx::Rng rng(3);
  const auto stats = simulate_sweep(heavy, rng);
  EXPECT_GT(stats.retransmissions, 0u);
  HoppingConfig clean;
  clean.loss_probability = 0.0;
  mathx::Rng rng2(3);
  EXPECT_GT(stats.total_time_s, simulate_sweep(clean, rng2).total_time_s);
}

TEST(Hopping, FailsafeTriggersUnderExtremeLoss) {
  HoppingConfig cfg;
  cfg.loss_probability = 0.9;
  cfg.max_retries = 1;
  mathx::Rng rng(5);
  std::size_t resets = 0;
  for (int i = 0; i < 20; ++i) {
    resets += simulate_sweep(cfg, rng).failsafe_resets;
  }
  EXPECT_GT(resets, 0u);
}

TEST(Hopping, BandSubsetShortensSweep) {
  HoppingConfig full;
  HoppingConfig half;
  half.bands = phy::bands_5ghz();
  mathx::Rng rng(1);
  const auto t_full = simulate_sweep(full, rng).total_time_s;
  mathx::Rng rng2(1);
  const auto t_half = simulate_sweep(half, rng2).total_time_s;
  EXPECT_LT(t_half, t_full);
}

TEST(Hopping, InvalidConfigThrows) {
  HoppingConfig cfg;
  cfg.dwell_time_s = 0.0;
  mathx::Rng rng(1);
  EXPECT_THROW((void)simulate_sweep(cfg, rng), std::invalid_argument);
  cfg.dwell_time_s = 1e-3;
  cfg.loss_probability = 1.0;
  EXPECT_THROW((void)simulate_sweep(cfg, rng), std::invalid_argument);
}

}  // namespace
}  // namespace chronos::proto
