#include <gtest/gtest.h>

#include <cmath>

#include "geom/circle.hpp"
#include "geom/vec2.hpp"

namespace chronos::geom {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_NEAR((a + b).x, 4.0, 1e-12);
  EXPECT_NEAR((a - b).y, 3.0, 1e-12);
  EXPECT_NEAR((a * 2.0).x, 2.0, 1e-12);
  EXPECT_NEAR((2.0 * a).y, 4.0, 1e-12);
  EXPECT_NEAR((a / 2.0).y, 1.0, 1e-12);
}

TEST(Vec2, DotCrossNorm) {
  const Vec2 a{3.0, 4.0};
  const Vec2 b{1.0, 0.0};
  EXPECT_NEAR(a.dot(b), 3.0, 1e-12);
  EXPECT_NEAR(a.cross(b), -4.0, 1e-12);
  EXPECT_NEAR(a.norm(), 5.0, 1e-12);
  EXPECT_NEAR(a.norm_sq(), 25.0, 1e-12);
}

TEST(Vec2, NormalizedAndZero) {
  const Vec2 a{0.0, 5.0};
  EXPECT_NEAR(a.normalized().y, 1.0, 1e-12);
  const Vec2 zero{};
  EXPECT_NEAR(zero.normalized().norm(), 0.0, 1e-12);
}

TEST(Vec2, DistanceAndAlmostEqual) {
  EXPECT_NEAR(distance({0.0, 0.0}, {3.0, 4.0}), 5.0, 1e-12);
  EXPECT_TRUE(almost_equal({1.0, 1.0}, {1.0, 1.0 + 1e-12}));
  EXPECT_FALSE(almost_equal({1.0, 1.0}, {1.0, 1.1}));
}

TEST(Circle, TwoPointIntersection) {
  const Circle a{{0.0, 0.0}, 5.0};
  const Circle b{{6.0, 0.0}, 5.0};
  const auto isect = intersect(a, b);
  ASSERT_EQ(isect.points.size(), 2u);
  EXPECT_FALSE(isect.disjoint);
  for (const auto& p : isect.points) {
    EXPECT_NEAR(distance(p, a.center), 5.0, 1e-9);
    EXPECT_NEAR(distance(p, b.center), 5.0, 1e-9);
  }
  EXPECT_NEAR(isect.points[0].x, 3.0, 1e-9);
  EXPECT_NEAR(std::abs(isect.points[0].y), 4.0, 1e-9);
}

TEST(Circle, ExternallyTangent) {
  const Circle a{{0.0, 0.0}, 2.0};
  const Circle b{{5.0, 0.0}, 3.0};
  const auto isect = intersect(a, b);
  ASSERT_EQ(isect.points.size(), 1u);
  EXPECT_NEAR(isect.points[0].x, 2.0, 1e-9);
  EXPECT_NEAR(isect.points[0].y, 0.0, 1e-9);
}

TEST(Circle, InternallyTangent) {
  const Circle a{{0.0, 0.0}, 5.0};
  const Circle b{{2.0, 0.0}, 3.0};
  const auto isect = intersect(a, b);
  ASSERT_EQ(isect.points.size(), 1u);
  EXPECT_NEAR(isect.points[0].x, 5.0, 1e-9);
}

TEST(Circle, DisjointSeparatedReportsClosestApproach) {
  const Circle a{{0.0, 0.0}, 1.0};
  const Circle b{{10.0, 0.0}, 2.0};
  const auto isect = intersect(a, b);
  EXPECT_TRUE(isect.points.empty());
  EXPECT_TRUE(isect.disjoint);
  ASSERT_TRUE(isect.closest_approach.has_value());
  // Midpoint of the gap between boundaries: x in [1, 8] -> 4.5.
  EXPECT_NEAR(isect.closest_approach->x, 4.5, 1e-9);
  EXPECT_NEAR(isect.closest_approach->y, 0.0, 1e-9);
}

TEST(Circle, DisjointNestedReportsClosestApproach) {
  const Circle a{{0.0, 0.0}, 5.0};
  const Circle b{{1.0, 0.0}, 1.0};
  const auto isect = intersect(a, b);
  EXPECT_TRUE(isect.points.empty());
  EXPECT_TRUE(isect.disjoint);
  ASSERT_TRUE(isect.closest_approach.has_value());
}

TEST(Circle, CoincidentIsDegenerate) {
  const Circle a{{1.0, 1.0}, 2.0};
  const auto isect = intersect(a, a);
  EXPECT_TRUE(isect.points.empty());
  EXPECT_FALSE(isect.disjoint);
}

TEST(Circle, NearTangentWithinToleranceSnapsToOnePoint) {
  const Circle a{{0.0, 0.0}, 2.0};
  const Circle b{{4.0 + 1e-12, 0.0}, 2.0};
  const auto isect = intersect(a, b, 1e-9);
  ASSERT_EQ(isect.points.size(), 1u);
}

TEST(Circle, NegativeRadiusThrows) {
  EXPECT_THROW((void)intersect({{0, 0}, -1.0}, {{1, 0}, 1.0}),
               std::invalid_argument);
}

// Property sweep: the intersection points of two random circles always lie
// on both boundaries.
class CircleSweep : public ::testing::TestWithParam<int> {};

TEST_P(CircleSweep, IntersectionPointsLieOnBothCircles) {
  const int k = GetParam();
  const Circle a{{0.0, 0.0}, 1.0 + 0.5 * k};
  const Circle b{{0.7 * k, 0.3 * k}, 2.0};
  const auto isect = intersect(a, b);
  for (const auto& p : isect.points) {
    EXPECT_NEAR(distance(p, a.center), a.radius, 1e-8);
    EXPECT_NEAR(distance(p, b.center), b.radius, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CircleSweep, ::testing::Range(1, 8));

}  // namespace
}  // namespace chronos::geom
