#include "baseline/pseudo_inverse.hpp"

#include "mathx/contracts.hpp"
#include "mathx/cvec.hpp"
#include "mathx/matrix.hpp"

namespace chronos::baseline {

namespace {

/// Solves the small Hermitian system (F F^H + reg I) x = h (n = number of
/// bands, tiny).
std::vector<std::complex<double>> solve_gram(
    const core::NdftPlan& f, std::span<const std::complex<double>> h,
    double regularization) {
  const std::size_t n = f.rows();
  mathx::ComplexMatrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::complex<double> acc{0.0, 0.0};
      for (std::size_t k = 0; k < f.cols(); ++k) {
        acc += f.at(i, k) * std::conj(f.at(j, k));
      }
      gram(i, j) = acc;
    }
    gram(i, i) += regularization;
  }
  return mathx::solve_linear(std::move(gram), {h.begin(), h.end()});
}

/// The one-step profile p = F^H x, on the plan's adjoint kernel, with its
/// residual ||F p - h||.
core::SparseSolveResult adjoint_profile(
    const core::NdftSolver& solver, std::span<const std::complex<double>> x,
    std::span<const std::complex<double>> h) {
  const core::NdftPlan& f = solver.plan();
  std::vector<double> x_re(x.size()), x_im(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x_re[i] = x[i].real();
    x_im[i] = x[i].imag();
  }
  std::vector<double> p_re(f.cols()), p_im(f.cols());
  f.adjoint(x_re.data(), x_im.data(), p_re.data(), p_im.data());
  core::SparseSolveResult out;
  out.grid = solver.grid();
  out.coefficients.resize(f.cols());
  for (std::size_t k = 0; k < f.cols(); ++k) {
    out.coefficients[k] = {p_re[k], p_im[k]};
  }
  out.converged = true;
  out.iterations = 1;
  auto recon = solver.synthesize(out.coefficients);
  for (std::size_t i = 0; i < recon.size(); ++i) recon[i] -= h[i];
  out.residual_norm = mathx::norm2(recon);
  return out;
}

}  // namespace

core::SparseSolveResult solve_min_norm(const core::NdftSolver& solver,
                                       std::span<const std::complex<double>> h,
                                       double regularization) {
  CHRONOS_EXPECTS(h.size() == solver.plan().rows(), "size mismatch");
  return adjoint_profile(solver, solve_gram(solver.plan(), h, regularization),
                         h);
}

core::SparseSolveResult solve_adjoint(
    const core::NdftSolver& solver, std::span<const std::complex<double>> h) {
  CHRONOS_EXPECTS(h.size() == solver.plan().rows(), "size mismatch");
  return adjoint_profile(solver, h, h);
}

}  // namespace chronos::baseline
