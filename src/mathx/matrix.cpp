#include "mathx/matrix.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace chronos::mathx
