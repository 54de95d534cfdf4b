// Sparse inversion of the Non-uniform Discrete Fourier Transform
// (paper §6, Algorithm 1).
//
// The per-band center-frequency channels form h~_i = sum_k p_k e^{-j2*pi*
// f_i*tau_k}: an NDFT of the multipath delay profile p sampled at the
// unevenly spaced Wi-Fi band frequencies. The system is underdetermined (35
// measurements, thousands of candidate delays), so Chronos picks the
// sparsest consistent profile by minimising
//     ||h~ - F p||_2^2 + alpha * ||p||_1
// with a proximal-gradient iteration (ISTA): a gradient step on the L2 term
// followed by complex soft-thresholding (the paper's SPARSIFY).
//
// Step: the paper's Algorithm 1 takes the fixed step gamma = 1/||F||_2^2.
// Here gamma only sets where the step starts: each solve starts at
// 4 gamma, and a backtracking test (Beck and Teboulle) accepts a step
// from y to q only if 1/2 ||h - F q||^2 stays under the quadratic bound
// that step length implies at y, else halves it and tries again from the
// same gradient; each gap check that does not stop doubles it. The loop
// moves on a working set of columns between checks, whose curvature is
// about a third of ||F||_2^2 on office channels, so the accepted steps are
// longer than gamma, and the test, not the estimate of ||F||_2, is what
// makes every step safe.
//
// Stop rule: a duality-gap certificate. The solvers minimise
// P(p) = 1/2 ||h - F p||^2 + alpha ||p||_1 (the paper's objective halved,
// with the effective alpha of IstaOptions::alpha). Every 10 iterations they
// take the residual r = h - F p at the iterate, scale it into the dual
// feasible set, theta = s r with s = min(1, alpha / max|F^H r|), and
// evaluate D(theta) = 1/2 ||h||^2 - 1/2 ||h - theta||^2 <= min P. The
// relative gap (P - D) / P bounds how far P(p) is from the optimum; the
// solve stops once it is at most IstaOptions::gap_tolerance.
//
// Extensions beyond the paper, used by the ablation benches:
//  * FISTA — Nesterov-accelerated variant; on the solver ablation's
//    three-path channel it certifies in 60 iterations against ISTA's 90;
//  * OMP   — greedy orthogonal matching pursuit, a classic sparse baseline.
//
// Performance: every product with F runs on the structure-exploiting kernel
// layer in core/ndft_kernels.hpp — a plan per solver (the Fourier matrix as
// split-complex planes, row-major for the adjoint and column-major for the
// forward product, plus the precomputed step size), a per-thread workspace
// that makes the iteration loops allocation-free, an active-set forward
// product once the iterate is sparse, an adjoint and a forward product with a
// run-time AVX2 variant, and recurrence matched-filter scans. Each iteration
// takes one gradient, F^H (F y - h) from the residual the backtracking test
// already holds; between gap checks it and the proximal step visit only a
// working set of columns that the last check admitted from the full dual (the
// supports of p and y and every column whose dual correlation comes near
// alpha).
#pragma once

#include <complex>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/ndft_kernels.hpp"

namespace chronos::core {

struct IstaOptions {
  /// Sparsity weight alpha, relative to the strongest matched-filter
  /// response: the effective alpha is alpha * max|F^H h|, so the knob is
  /// scale-free. 0.2 suppresses the junk floor that normalisation model
  /// error and per-band phase noise otherwise spread across the profile
  /// (see the alpha-sweep ablation bench).
  double alpha = 0.2;
  /// Convergence: stop at the first gap check (every 10 iterations) whose
  /// relative duality gap (P - D) / P is at most this (see the header
  /// comment): P(p) then exceeds the optimum by at most 0.3% of P(p).
  double gap_tolerance = 3e-3;
  /// Iteration cap; a solve that reaches it is certified once more at its
  /// last iterate and returns converged = false unless that check passes.
  int max_iterations = 4000;
};

/// Result of a sparse inversion.
struct SparseSolveResult {
  std::vector<std::complex<double>> coefficients;  ///< p over the grid
  DelayGrid grid;
  int iterations = 0;
  /// ISTA/FISTA: how often the backtracking step halved over the solve
  /// (each halving redoes one proximal step). 0 from OMP.
  int step_halvings = 0;
  /// ISTA/FISTA: relative_gap <= IstaOptions::gap_tolerance.
  bool converged = false;
  double residual_norm = 0.0;  ///< ||h - F p||_2 at the solution
  /// ISTA/FISTA: the relative duality gap (P - D) / P of the returned p
  /// (0 when P = 0). NaN from solvers without a certificate (OMP).
  double relative_gap = std::numeric_limits<double>::quiet_NaN();
};

/// The NDFT operator for a fixed set of row frequencies and delay grid.
/// Rows are F_{i,k} = w_i * e^{-j 2 pi f_i tau_k} (paper's Fourier matrix,
/// optionally row-weighted).
///
/// Row weights turn the data term into a weighted L2 norm: callers scale
/// the measurement h_i by w_i before solving (RangingPipeline does this).
/// Chronos uses them to de-emphasise the 2.4 GHz rows, whose quadrant-fix
/// exponent (h^8) distorts their magnitudes relative to the shared sparse
/// model — they still contribute phase aperture, just with less authority.
///
/// Construction builds the solver's NdftPlan (F in both kernel layouts and
/// the power iteration for gamma); copies of the solver share it, and it
/// dies with the last of them.
class NdftSolver {
 public:
  NdftSolver(std::vector<double> row_freqs_hz, DelayGrid grid,
             std::vector<double> row_weights = {});

  /// Paper Algorithm 1: proximal gradient, with the backtracking step of
  /// the header comment in place of the fixed gamma = 1/||F||_2^2.
  /// Every solver runs on a per-thread workspace (one per worker of the
  /// batched runtime), so the iteration loop performs no heap allocation.
  SparseSolveResult solve_ista(std::span<const std::complex<double>> h,
                               const IstaOptions& opts = {}) const;

  /// Accelerated variant (extension).
  SparseSolveResult solve_fista(std::span<const std::complex<double>> h,
                                const IstaOptions& opts = {}) const;

  /// solve_fista on each channel of `hs` in turn: result k is
  /// bit-identical to solve_fista(hs[k], opts), since a solve is a pure
  /// function of (plan, channel, options). Lane-interleaved SoA panels
  /// were measured 2-15x SLOWER per RHS at baseline ISA (interleaving
  /// wrecks both the unit stride the column-vectorised kernels rely on and
  /// each channel's own sparsity), so the channels are solved one after
  /// another. The ranging runtime does not call it; the micro-bench and
  /// the end-to-end benchmark do.
  std::vector<SparseSolveResult> solve_fista_batch(
      std::span<const std::span<const std::complex<double>>> hs,
      const IstaOptions& opts = {}) const;

  /// Greedy orthogonal matching pursuit picking `max_paths` atoms
  /// (extension / ablation baseline). The Gram matrix of the active set is
  /// extended incrementally (one new row/column per atom) rather than
  /// rebuilt from scratch each iteration.
  SparseSolveResult solve_omp(std::span<const std::complex<double>> h,
                              std::size_t max_paths) const;

  /// F p on the forward kernel — synthesises the channel a profile would
  /// produce (the baselines' residuals; tests check data consistency).
  std::vector<std::complex<double>> synthesize(
      std::span<const std::complex<double>> p) const;

  /// Batched matched filter over the arithmetic sequence u0 + k*du,
  /// k in [0, count): one phasor rotation per row per sample instead of a
  /// std::polar per row per sample. `out` must hold `count` doubles.
  void matched_filter_scan(std::span<const std::complex<double>> h, double u0,
                           double du, std::size_t count,
                           std::span<double> out) const;

  /// Continuous refinement of a coarse peak location: ternary-searches the
  /// matched filter within +-half_width_s of `coarse_delay_s`. The grid
  /// step (0.125 ns default) undersamples the ~0.15 ns mainlobe that the
  /// 3.4 GHz stitched aperture produces; this recovers the lost precision.
  double refine_delay(std::span<const std::complex<double>> h,
                      double coarse_delay_s, double half_width_s) const;

  const DelayGrid& grid() const { return plan_->grid(); }
  /// The kernel plan backing this solver: F's entries, its kernels and the
  /// reference step gamma.
  const NdftPlan& plan() const { return *plan_; }
  /// Applies the row weights to a raw measurement vector (h_i -> w_i h_i).
  std::vector<std::complex<double>> apply_weights(
      std::span<const std::complex<double>> h) const;

 private:
  std::shared_ptr<const NdftPlan> plan_;
};

}  // namespace chronos::core
