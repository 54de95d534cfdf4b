#include "mathx/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "mathx/cvec.hpp"

namespace chronos::mathx {

std::vector<std::complex<double>> solve_linear(
    ComplexMatrix a, std::vector<std::complex<double>> b) {
  const std::size_t n = a.rows();
  CHRONOS_EXPECTS(a.cols() == n && b.size() == n,
                  "solve_linear needs a square system");
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(a(i, k)) > best) {
        best = std::abs(a(i, k));
        pivot = i;
      }
    }
    CHRONOS_EXPECTS(best > 1e-14, "singular system in solve_linear");
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(pivot, j));
      std::swap(b[k], b[pivot]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const std::complex<double> factor = a(i, k) / a(k, k);
      if (factor == std::complex<double>{}) continue;
      for (std::size_t j = k; j < n; ++j) a(i, j) -= factor * a(k, j);
      b[i] -= factor * b[k];
    }
  }
  std::vector<std::complex<double>> x(n);
  for (std::size_t k = n; k-- > 0;) {
    std::complex<double> acc = b[k];
    for (std::size_t j = k + 1; j < n; ++j) acc -= a(k, j) * x[j];
    x[k] = acc / a(k, k);
  }
  return x;
}

double spectral_norm(const ComplexMatrix& a, int iterations,
                     unsigned long long seed) {
  CHRONOS_EXPECTS(a.rows() > 0 && a.cols() > 0, "spectral_norm of empty matrix");
  CHRONOS_EXPECTS(iterations > 0, "iterations must be positive");

  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<std::complex<double>> x(a.cols());
  for (auto& v : x) v = {gauss(rng), gauss(rng)};

  double sigma = 0.0;
  for (int it = 0; it < iterations; ++it) {
    auto ax = a.multiply(x);
    auto aax = a.multiply_adjoint(ax);
    double n = norm2(aax);
    if (n == 0.0) return 0.0;
    for (auto& v : aax) v /= n;
    x = std::move(aax);
    // Rayleigh quotient after applying A once more.
    auto ax2 = a.multiply(x);
    sigma = norm2(ax2);
  }
  return sigma;
}

}  // namespace chronos::mathx
