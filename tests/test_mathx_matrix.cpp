#include <gtest/gtest.h>

#include <complex>

#include "mathx/matrix.hpp"

namespace chronos::mathx {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  RealMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(Matrix, DataConstructorValidatesSize) {
  EXPECT_THROW(RealMatrix(2, 2, {1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Matrix, MatVec) {
  RealMatrix m(2, 2, {1.0, 2.0, 3.0, 4.0});
  const std::vector<double> x = {1.0, -1.0};
  const auto y = m.multiply(x);
  EXPECT_NEAR(y[0], -1.0, 1e-12);
  EXPECT_NEAR(y[1], -1.0, 1e-12);
}

TEST(Matrix, AdjointMatVecIsConjugateTranspose) {
  ComplexMatrix m(1, 2);
  m(0, 0) = {0.0, 1.0};
  m(0, 1) = {2.0, 0.0};
  const std::vector<std::complex<double>> x = {{1.0, 0.0}};
  const auto y = m.multiply_adjoint(x);
  EXPECT_NEAR(y[0].imag(), -1.0, 1e-12);  // conj(j) = -j
  EXPECT_NEAR(y[1].real(), 2.0, 1e-12);
}

TEST(SolveLinear, PivotingHandlesZeroDiagonal) {
  ComplexMatrix a(2, 2);
  a(0, 1) = {0.0, 1.0};
  a(1, 0) = {2.0, 0.0};
  const auto x = solve_linear(a, {{3.0, 0.0}, {0.0, 8.0}});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(std::abs(x[0] - std::complex<double>{0.0, 4.0}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - std::complex<double>{0.0, -3.0}), 0.0, 1e-12);
}

TEST(SolveLinear, SingularThrows) {
  // Second row is (1 + j) times the first.
  ComplexMatrix a(2, 2);
  a(0, 0) = {1.0, 0.0};
  a(0, 1) = {0.0, 2.0};
  a(1, 0) = {1.0, 1.0};
  a(1, 1) = {-2.0, 2.0};
  EXPECT_THROW((void)solve_linear(a, {{1.0, 0.0}, {2.0, 0.0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace chronos::mathx
