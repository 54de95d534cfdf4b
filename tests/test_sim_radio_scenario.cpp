#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "mathx/rng.hpp"
#include "phy/band_plan.hpp"
#include "sim/radio.hpp"
#include "sim/scenario.hpp"

namespace chronos::sim {
namespace {

TEST(Radio, DeviceBuilders) {
  const auto laptop = make_laptop({5.0, 5.0}, 0.3);
  ASSERT_EQ(laptop.antennas.size(), 3u);
  EXPECT_NEAR(geom::distance(laptop.antennas[0], laptop.antennas[1]), 0.3,
              1e-12);
  // Non-collinear (paper §8 requires it for unambiguous trilateration).
  const auto cross = (laptop.antennas[1] - laptop.antennas[0])
                         .cross(laptop.antennas[2] - laptop.antennas[0]);
  EXPECT_GT(std::abs(cross), 1e-6);

  const auto ap = make_access_point({0.0, 0.0});
  EXPECT_NEAR(geom::distance(ap.antennas[0], ap.antennas[1]), 1.0, 1e-12);

  const auto mobile = make_mobile({1.0, 2.0});
  ASSERT_EQ(mobile.antennas.size(), 1u);
}

TEST(Radio, ChainRippleIsDeterministicPerDevice) {
  const auto d1 = make_mobile({0.0, 0.0}, 77);
  const auto d2 = make_mobile({9.0, 9.0}, 77);
  const auto d3 = make_mobile({0.0, 0.0}, 78);
  for (std::size_t b = 0; b < 35; ++b) {
    EXPECT_EQ(d1.chain_ripple_rad(b), d2.chain_ripple_rad(b));
  }
  bool any_diff = false;
  for (std::size_t b = 0; b < 35; ++b) {
    if (d1.chain_ripple_rad(b) != d3.chain_ripple_rad(b)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

/// The ripple a device's table must hold: a fresh generator on the seed,
/// forked by band index + 1, one normal draw.
double derived_ripple(std::uint64_t seed, std::size_t band) {
  mathx::Rng rng(seed);
  return rng.fork(band + 1).normal(0.0, kBandRippleStdRad);
}

TEST(Radio, RippleTableIsThePerCallDerivationBitwise) {
  std::vector<Device> devices = {Device(), Device(0), Device(11, {{1.0, 2.0}})};
  for (const std::uint64_t seed :
       {std::uint64_t{2}, std::uint64_t{22}, std::uint64_t{1000003},
        std::uint64_t{0xFFFFFFFFFFFFFFFFull}}) {
    devices.push_back(make_mobile({0.0, 0.0}, seed));
    devices.push_back(make_laptop({3.0, 4.0}, 0.3, seed));
    devices.push_back(make_access_point({5.0, 1.0}, 1.0, seed));
  }
  ASSERT_EQ(devices.front().hardware_seed(), 1u);
  std::size_t compared = 0;
  for (const Device& d : devices) {
    SCOPED_TRACE(testing::Message() << "seed " << d.hardware_seed());
    const Device copy = d;
    for (std::size_t b = 0; b < phy::kUsPlanBands; ++b) {
      const double want = derived_ripple(d.hardware_seed(), b);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d.chain_ripple_rad(b)),
                std::bit_cast<std::uint64_t>(want))
          << "band " << b;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(copy.chain_ripple_rad(b)),
                std::bit_cast<std::uint64_t>(want))
          << "band " << b;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 15u * 35u);
  EXPECT_THROW((void)devices.front().chain_ripple_rad(phy::kUsPlanBands),
               std::invalid_argument);

  // A replayed node's identity carries no personality to read.
  const Device replayed = Device::identity(42, 3);
  EXPECT_EQ(replayed.hardware_seed(), 42u);
  EXPECT_EQ(replayed.antennas.size(), 3u);
  EXPECT_THROW((void)replayed.chain_ripple_rad(0), std::invalid_argument);
}

TEST(Radio, PacketSnrBudget) {
  // 15 dBm TX power, |h|^2 = -60 dB -> rx power -45 dBm; over a -82 dBm
  // noise floor -> SNR 37 dB.
  EXPECT_NEAR(packet_snr_db(1e-6), 37.0, 1e-9);
  EXPECT_THROW((void)packet_snr_db(0.0), std::invalid_argument);
}

TEST(Scenario, TestbedHasRequestedLocations) {
  const auto scen = office_testbed(42);
  EXPECT_EQ(scen.locations().size(), 30u);
  // All locations inside the floor with clearance.
  for (const auto& p : scen.locations()) {
    EXPECT_GT(p.x, 0.3);
    EXPECT_LT(p.x, 19.7);
    EXPECT_GT(p.y, 0.3);
    EXPECT_LT(p.y, 19.7);
  }
}

TEST(Scenario, LocationsAreDeterministicInSeed) {
  const auto a = office_testbed(42);
  const auto b = office_testbed(42);
  const auto c = office_testbed(43);
  EXPECT_EQ(a.locations()[0].x, b.locations()[0].x);
  EXPECT_NE(a.locations()[0].x, c.locations()[0].x);
}

TEST(Scenario, SamplePairRespectsDistanceBounds) {
  const auto scen = office_testbed(42);
  mathx::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto p = scen.sample_pair(rng, 3.0, 10.0);
    EXPECT_GE(p.distance(), 3.0);
    EXPECT_LE(p.distance(), 10.0);
  }
}

TEST(Scenario, LosAndNlosSamplersAgreeWithEnvironment) {
  const auto scen = office_testbed(42);
  mathx::Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    const auto los = scen.sample_pair_los(rng, 1.0, 15.0);
    EXPECT_TRUE(los.line_of_sight);
    EXPECT_TRUE(scen.environment().line_of_sight(los.tx, los.rx));
    const auto nlos = scen.sample_pair_nlos(rng, 1.0, 15.0);
    EXPECT_FALSE(nlos.line_of_sight);
    EXPECT_FALSE(scen.environment().line_of_sight(nlos.tx, nlos.rx));
  }
}

TEST(Scenario, InfeasibleConstraintThrows) {
  const auto scen = office_testbed(42);
  mathx::Rng rng(3);
  EXPECT_THROW((void)scen.sample_pair(rng, 100.0, 101.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace chronos::sim
