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

std::vector<double> hermitian_eigen(const ComplexMatrix& a,
                                    ComplexMatrix* eigenvectors,
                                    int max_sweeps) {
  const std::size_t n = a.rows();
  CHRONOS_EXPECTS(n > 0 && a.cols() == n, "hermitian_eigen needs square input");

  ComplexMatrix h = a;
  ComplexMatrix v = ComplexMatrix::identity(n);

  auto off_diag_norm = [&]() {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) acc += std::norm(h(i, j));
    return std::sqrt(acc);
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diag_norm() < 1e-12) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const std::complex<double> hpq = h(p, q);
        if (std::abs(hpq) < 1e-15) continue;

        // Complex Jacobi rotation: first rotate out the phase of h(p,q),
        // then apply the standard real 2x2 symmetric rotation.
        const double app = h(p, p).real();
        const double aqq = h(q, q).real();
        const double abs_hpq = std::abs(hpq);
        const std::complex<double> phase = hpq / abs_hpq;

        const double theta = 0.5 * std::atan2(2.0 * abs_hpq, app - aqq);
        const double c = std::cos(theta);
        // The rotation must carry conj(phase) so that the transformed
        // off-diagonal h c^2 - h* conj(s)^2 + (aqq-app) c conj(s) shares a
        // common phase factor and can cancel.
        const std::complex<double> s = std::sin(theta) * std::conj(phase);

        // Update H = J^H H J where J affects rows/cols p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const std::complex<double> hkp = h(k, p);
          const std::complex<double> hkq = h(k, q);
          h(k, p) = c * hkp + s * hkq;
          h(k, q) = -std::conj(s) * hkp + c * hkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const std::complex<double> hpk = h(p, k);
          const std::complex<double> hqk = h(q, k);
          h(p, k) = c * hpk + std::conj(s) * hqk;
          h(q, k) = -s * hpk + c * hqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const std::complex<double> vkp = v(k, p);
          const std::complex<double> vkq = v(k, q);
          v(k, p) = c * vkp + s * vkq;
          v(k, q) = -std::conj(s) * vkp + c * vkq;
        }
      }
    }
  }

  // Collect eigenvalues (diagonal is real for Hermitian input) and sort
  // ascending, permuting eigenvectors to match.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return h(i, i).real() < h(j, j).real();
  });

  std::vector<double> eigvals(n);
  ComplexMatrix sorted_vecs(n, n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    eigvals[idx] = h(order[idx], order[idx]).real();
    for (std::size_t r = 0; r < n; ++r) sorted_vecs(r, idx) = v(r, order[idx]);
  }
  if (eigenvectors != nullptr) *eigenvectors = std::move(sorted_vecs);
  return eigvals;
}

}  // namespace chronos::mathx
