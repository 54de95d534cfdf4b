// Minimal dense matrix over double or std::complex<double>.
//
// The library deliberately avoids external linear-algebra dependencies: the
// only consumers are OMP's least-squares refit, the min-norm baseline's Gram
// system, trilateration (the 2x2 Gauss-Newton normal matrix), and the tests,
// whose dense products (multiply, multiply_adjoint) are the reference the
// NDFT kernels are held to. Row-major storage, bounds-checked in debug via
// contracts at the public API.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "mathx/contracts.hpp"

namespace chronos::mathx {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix initialised to zero.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  /// Construct from row-major initializer data; data.size() must equal
  /// rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    CHRONOS_EXPECTS(data_.size() == rows_ * cols_,
                    "matrix data size mismatch");
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<T> row(std::size_t r) {
    CHRONOS_EXPECTS(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const T> row(std::size_t r) const {
    CHRONOS_EXPECTS(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  std::span<T> flat() { return data_; }
  std::span<const T> flat() const { return data_; }

  /// y = A * x. x.size() must equal cols().
  std::vector<T> multiply(std::span<const T> x) const {
    CHRONOS_EXPECTS(x.size() == cols_, "matvec dimension mismatch");
    std::vector<T> y(rows_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      T acc{};
      const T* rowp = data_.data() + r * cols_;
      for (std::size_t c = 0; c < cols_; ++c) acc += rowp[c] * x[c];
      y[r] = acc;
    }
    return y;
  }

  /// Conjugate-transpose product: y = A^H * x. x.size() must equal rows().
  /// For real T this is the plain transpose.
  std::vector<T> multiply_adjoint(std::span<const T> x) const {
    CHRONOS_EXPECTS(x.size() == rows_, "adjoint matvec dimension mismatch");
    std::vector<T> y(cols_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      const T* rowp = data_.data() + r * cols_;
      const T xr = x[r];
      for (std::size_t c = 0; c < cols_; ++c) y[c] += conj_of(rowp[c]) * xr;
    }
    return y;
  }

 private:
  static double conj_of(double v) { return v; }
  static std::complex<double> conj_of(const std::complex<double>& v) {
    return std::conj(v);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using RealMatrix = Matrix<double>;
using ComplexMatrix = Matrix<std::complex<double>>;

/// Solves a square complex system A x = b by Gaussian elimination with
/// partial pivoting, skipping rows whose elimination factor is exactly zero.
/// Throws std::invalid_argument when no pivot candidate exceeds 1e-14 in
/// magnitude. OMP's least-squares refit and the pseudo-inverse baseline's
/// Gram solve share it; both pass small n x n systems.
std::vector<std::complex<double>> solve_linear(
    ComplexMatrix a, std::vector<std::complex<double>> b);

}  // namespace chronos::mathx
