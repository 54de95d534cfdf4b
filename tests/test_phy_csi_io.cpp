#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/ranging.hpp"
#include "phy/csi_io.hpp"
#include "sim/link.hpp"

namespace chronos::phy {
namespace {

SweepMeasurement sample_sweep() {
  sim::LinkSimConfig cfg;
  cfg.exchanges_per_band = 2;
  sim::LinkSimulator link(sim::office_20x20(), cfg);
  mathx::Rng rng(44);
  return link.simulate_sweep(sim::make_mobile({2.0, 2.0}, 1), 0,
                             sim::make_mobile({7.0, 5.0}, 2), 0, rng);
}

TEST(CsiIo, RoundTripsExactly) {
  const auto sweep = sample_sweep();
  std::stringstream ss;
  write_sweep(ss, sweep);
  const auto loaded = try_read_sweep(ss).value();

  ASSERT_EQ(loaded.bands.size(), sweep.bands.size());
  EXPECT_DOUBLE_EQ(loaded.sweep_duration_s, sweep.sweep_duration_s);
  for (std::size_t bi = 0; bi < sweep.bands.size(); ++bi) {
    ASSERT_EQ(loaded.bands[bi].size(), sweep.bands[bi].size());
    for (std::size_t c = 0; c < sweep.bands[bi].size(); ++c) {
      const auto& a = sweep.bands[bi][c];
      const auto& b = loaded.bands[bi][c];
      EXPECT_EQ(a.forward.band.channel, b.forward.band.channel);
      EXPECT_DOUBLE_EQ(a.forward.timestamp_s, b.forward.timestamp_s);
      EXPECT_DOUBLE_EQ(a.forward.snr_db, b.forward.snr_db);
      for (std::size_t k = 0; k < 30; ++k) {
        EXPECT_DOUBLE_EQ(a.forward.values[k].real(),
                         b.forward.values[k].real());
        EXPECT_DOUBLE_EQ(a.reverse.values[k].imag(),
                         b.reverse.values[k].imag());
      }
    }
  }
}

TEST(CsiIo, LoadedSweepProducesIdenticalRangingResult) {
  const auto sweep = sample_sweep();
  std::stringstream ss;
  write_sweep(ss, sweep);
  const auto loaded = try_read_sweep(ss).value();

  std::vector<WifiBand> bands;
  for (const auto& caps : sweep.bands) bands.push_back(caps[0].forward.band);
  core::RangingPipeline pipe(bands, {});
  const auto a = pipe.estimate(sweep);
  const auto b = pipe.estimate(loaded);
  EXPECT_DOUBLE_EQ(a.tof_s, b.tof_s);
  EXPECT_DOUBLE_EQ(a.toa_s, b.toa_s);
}

TEST(CsiIo, FileRoundTrip) {
  const auto sweep = sample_sweep();
  const std::string path = "/tmp/chronos_test_sweep.csi";
  save_sweep(path, sweep);
  const auto loaded = try_load_sweep(path).value();
  EXPECT_EQ(loaded.bands.size(), sweep.bands.size());
  std::remove(path.c_str());
}

TEST(CsiIo, CommentsAndBlankLinesIgnored) {
  const auto sweep = sample_sweep();
  std::stringstream ss;
  write_sweep(ss, sweep);
  const std::string with_noise = "# leading comment\n\n" + ss.str() + "\n#tail\n";
  std::stringstream ss2(with_noise);
  EXPECT_TRUE(try_read_sweep(ss2).ok());
}

TEST(CsiIo, RejectsMalformedInput) {
  constexpr auto kMalformed = chronos::StatusCode::kMalformedSweep;
  std::stringstream empty;
  EXPECT_EQ(try_read_sweep(empty).status().code(), kMalformed);

  std::stringstream bad_tag("sweep 1 0.1\nband 0 36\nfrobnicate 1 2 3\n");
  EXPECT_EQ(try_read_sweep(bad_tag).status().code(), kMalformed);

  std::stringstream orphan_reverse(
      "sweep 1 0.1\nband 0 36\ncapture 0 r 0.0 30.0 1 0\n");
  EXPECT_EQ(try_read_sweep(orphan_reverse).status().code(), kMalformed);

  std::stringstream short_capture("sweep 1 0.1\nband 0 36\ncapture 0 f 0 30 1 0\n");
  EXPECT_EQ(try_read_sweep(short_capture).status().code(), kMalformed);

  EXPECT_EQ(try_load_sweep("/nonexistent/path/sweep.csi").status().code(),
            kMalformed);
}

TEST(CsiIo, WriteRefusesWhatReadWouldReject) {
  // NaN CSI would read back as a parse error, an all-zero capture as a
  // sweep without CSI energy, a zero duration as a bad sweep header, and a
  // band off the plan as the plan's band of its channel: write_sweep
  // refuses each instead of writing a trace that loads wrong or not at all.
  auto nan = sample_sweep();
  nan.bands[4][1].reverse.values[9] = {std::nan(""), 0.0};
  auto zero = sample_sweep();
  zero.bands[2][0].forward.values.fill({0.0, 0.0});
  auto no_duration = sample_sweep();
  no_duration.sweep_duration_s = 0.0;
  // Channel 36 centred at 2.437 GHz, on every capture of its band.
  auto off_plan = sample_sweep();
  for (auto& captures : off_plan.bands) {
    if (captures.front().forward.band.channel != 36) continue;
    for (auto& cap : captures) {
      cap.forward.band.center_freq_hz = band_by_channel(6).center_freq_hz;
      cap.reverse.band.center_freq_hz = band_by_channel(6).center_freq_hz;
    }
  }
  ASSERT_TRUE(check_sweep(off_plan).ok());
  for (const SweepMeasurement* sweep : {&nan, &zero, &no_duration, &off_plan}) {
    std::stringstream ss;
    EXPECT_THROW(write_sweep(ss, *sweep), std::invalid_argument);
  }
}

TEST(CsiIo, RejectsUnknownChannel) {
  std::stringstream bad_channel("sweep 1 0.1\nband 0 13\n");
  EXPECT_EQ(try_read_sweep(bad_channel).status().code(),
            chronos::StatusCode::kBandMismatch);
}

}  // namespace
}  // namespace chronos::phy
