#include <gtest/gtest.h>

#include "sim/environment.hpp"
#include "sim/multipath.hpp"

namespace chronos::sim {
namespace {

TEST(Environment, OfficeHasWallsAndBlockers) {
  const auto env = office_20x20();
  EXPECT_GE(env.walls.size(), 4u);
  EXPECT_EQ(env.blockers.size(), 3u);
  EXPECT_EQ(env.max_reflection_order, 2);
}

TEST(Environment, AnechoicIsEmpty) {
  const auto env = anechoic();
  EXPECT_TRUE(env.walls.empty());
  EXPECT_TRUE(env.blockers.empty());
  EXPECT_EQ(env.max_reflection_order, 0);
}

TEST(Environment, LineOfSightDetection) {
  const auto env = office_20x20();
  // Partition A runs x=10, y in [2,9]: points straddling it are NLOS.
  EXPECT_FALSE(env.line_of_sight({8.0, 5.0}, {12.0, 5.0}));
  // Points above the partition see each other.
  EXPECT_TRUE(env.line_of_sight({8.0, 11.0}, {12.0, 11.0}));
}

TEST(Environment, DroneRoomDimensions) {
  const auto env = drone_room_6x5();
  EXPECT_EQ(env.walls.size(), 4u);
  EXPECT_TRUE(env.line_of_sight({1.0, 1.0}, {5.0, 4.0}));
}

TEST(Multipath, AnechoicHasOnlyDirectPath) {
  const auto paths = compute_paths(anechoic(), {0.0, 0.0}, {5.0, 0.0});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].bounces, 0);
  EXPECT_NEAR(paths[0].delay_s, 5.0 / 299792458.0, 1e-15);
}

TEST(Multipath, ScatterersAddEchoesAfterTheDirectPath) {
  PropagationModelParams no_scatter;
  no_scatter.include_scatterers = false;
  const auto env = office_20x20();
  const auto bare = compute_paths(env, {3.0, 3.0}, {9.0, 4.0}, no_scatter);
  const auto full = compute_paths(env, {3.0, 3.0}, {9.0, 4.0});
  EXPECT_GT(full.size(), bare.size());
  const double direct = full.front().delay_s;
  for (const auto& p : full) EXPECT_GE(p.delay_s, direct - 1e-15);
}

TEST(Multipath, PathsAreDeterministicPerPlacement) {
  const auto env = office_20x20();
  const auto a = compute_paths(env, {1.0, 2.0}, {4.0, 3.0});
  const auto b = compute_paths(env, {1.0, 2.0}, {4.0, 3.0});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].delay_s, b[i].delay_s);
    EXPECT_EQ(a[i].gain, b[i].gain);
  }
}

TEST(Multipath, EchoFieldVariesContinuouslyWithAntennaPosition) {
  // Two receive antennas 30 cm apart see nearly the same echo field: every
  // scatterer echo's delay moves by at most 0.3 m of path (1 ns), so the
  // per-antenna range errors stay common-mode — the property that makes
  // small-baseline trilateration possible.
  const auto env = office_20x20();
  const auto a = compute_paths(env, {3.0, 3.0}, {9.0, 4.0});
  const auto b = compute_paths(env, {3.0, 3.0}, {9.3, 4.0});
  for (const auto& pa : a) {
    double best_gap = 1e9;
    for (const auto& pb : b) {
      best_gap = std::min(best_gap, std::abs(pb.delay_s - pa.delay_s));
    }
    EXPECT_LT(best_gap, 1.1e-9);
  }
}

TEST(Multipath, GainFallsWithDistance) {
  PropagationModelParams params;
  const auto near = compute_paths(anechoic(), {0.0, 0.0}, {2.0, 0.0}, params);
  const auto far = compute_paths(anechoic(), {0.0, 0.0}, {10.0, 0.0}, params);
  EXPECT_GT(std::abs(near[0].gain), std::abs(far[0].gain));
  // Power exponent 3: 5x distance -> 125x power -> ~21 dB.
  const double ratio = std::norm(near[0].gain) / std::norm(far[0].gain);
  EXPECT_NEAR(10.0 * std::log10(ratio), 20.97, 0.5);
}

TEST(Multipath, OfficeProducesRichMultipath) {
  const auto paths = compute_paths(office_20x20(), {3.0, 3.0}, {12.0, 8.0});
  EXPECT_GT(paths.size(), 5u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].delay_s, paths[i - 1].delay_s);
  }
}

TEST(Multipath, ChannelAtMatchesManualSum) {
  std::vector<PathComponent> paths = {
      {10e-9, {1.0, 0.0}, 0}, {25e-9, {0.5, 0.0}, 1}};
  const double f = 5.2e9;
  const auto h = channel_at(paths, f);
  const std::complex<double> expect =
      std::polar(1.0, -2.0 * 3.14159265358979 * f * 10e-9) +
      0.5 * std::polar(1.0, -2.0 * 3.14159265358979 * f * 25e-9);
  EXPECT_NEAR(std::abs(h - expect), 0.0, 1e-9);
}

TEST(Multipath, PowerHelpers) {
  std::vector<PathComponent> paths = {
      {10e-9, {1.0, 0.0}, 0}, {25e-9, {0.5, 0.0}, 1}};
  EXPECT_NEAR(total_power(paths), 1.25, 1e-12);
}

TEST(Multipath, CoincidentEndpointsThrow) {
  EXPECT_THROW((void)compute_paths(anechoic(), {1.0, 1.0}, {1.0, 1.0}),
               std::invalid_argument);
}

TEST(Multipath, BlockedDirectPathIsAttenuatedNotRemoved) {
  const auto env = office_20x20();
  PropagationModelParams params;
  params.include_scatterers = false;
  const auto los = compute_paths(env, {8.0, 11.0}, {12.0, 11.0}, params);
  const auto nlos = compute_paths(env, {8.0, 5.0}, {12.0, 5.0}, params);
  // Direct paths have identical geometry (length 4) but NLOS is weaker.
  EXPECT_LT(std::abs(nlos.front().gain), std::abs(los.front().gain));
}

}  // namespace
}  // namespace chronos::sim
