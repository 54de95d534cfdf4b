#include "baseline/pseudo_inverse.hpp"

#include "mathx/contracts.hpp"
#include "mathx/cvec.hpp"
#include "mathx/matrix.hpp"

namespace chronos::baseline {

namespace {

/// Solves the small Hermitian system (F F^H + reg I) x = h (n = number of
/// bands, tiny).
std::vector<std::complex<double>> solve_gram(
    const mathx::ComplexMatrix& f, std::span<const std::complex<double>> h,
    double regularization) {
  const std::size_t n = f.rows();
  mathx::ComplexMatrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::complex<double> acc{0.0, 0.0};
      for (std::size_t k = 0; k < f.cols(); ++k) {
        acc += f(i, k) * std::conj(f(j, k));
      }
      gram(i, j) = acc;
    }
    gram(i, i) += regularization;
  }
  return mathx::solve_linear(std::move(gram), {h.begin(), h.end()});
}

}  // namespace

core::SparseSolveResult solve_min_norm(const core::NdftSolver& solver,
                                       std::span<const std::complex<double>> h,
                                       double regularization) {
  CHRONOS_EXPECTS(h.size() == solver.matrix().rows(), "size mismatch");
  const auto y = solve_gram(solver.matrix(), h, regularization);
  core::SparseSolveResult out;
  out.grid = solver.grid();
  out.coefficients = solver.matrix().multiply_adjoint(y);
  out.converged = true;
  out.iterations = 1;
  auto recon = solver.synthesize(out.coefficients);
  for (std::size_t i = 0; i < recon.size(); ++i) recon[i] -= h[i];
  out.residual_norm = mathx::norm2(recon);
  return out;
}

core::SparseSolveResult solve_adjoint(
    const core::NdftSolver& solver, std::span<const std::complex<double>> h) {
  CHRONOS_EXPECTS(h.size() == solver.matrix().rows(), "size mismatch");
  core::SparseSolveResult out;
  out.grid = solver.grid();
  out.coefficients = solver.matrix().multiply_adjoint(h);
  out.converged = true;
  out.iterations = 1;
  auto recon = solver.synthesize(out.coefficients);
  for (std::size_t i = 0; i < recon.size(); ++i) recon[i] -= h[i];
  out.residual_norm = mathx::norm2(recon);
  return out;
}

}  // namespace chronos::baseline
