// Structure-exploiting kernel layer under the NDFT solver.
//
// The sparse inversion of the paper's Fourier matrix F (35 unevenly spaced
// Wi-Fi center frequencies x thousands of candidate delays) spends
// essentially all of its time in three operations: the forward product F p,
// the adjoint F^H x, and matched-filter scans of h over a delay axis. This
// layer owns the precomputed structure those operations exploit:
//
//  * NdftPlan — the immutable per-(row freqs, grid, weights) precomputation:
//    the Fourier matrix held once per kernel: split-complex row-major
//    planes (separate real/imag arrays, row r's m entries contiguous),
//    which the adjoint reads across columns, and split-complex
//    column-major planes (column c's rows contiguous, padded with zero
//    rows to a multiple of the four-double vector width), which the
//    forward product reads across rows. Every product with F runs on
//    these two kernels, the power iteration behind the reference step
//    gamma = 1/||F||_2^2 included; OMP and the min-norm baseline read
//    single entries through at(). Each NdftSolver builds its own plan,
//    shared only with the solver's copies; a build is a pure function of
//    its key, so two builds of one key hold the same bits.
//  * NdftWorkspace — scratch sized for one plan (the solvers keep one per
//    thread), so the ISTA/FISTA iteration loops run with zero heap
//    allocations.
//  * Kernels — active-set forward, adjoint, the gradient F^H (F p - h)
//    from its residual on the solver's working set, and a batched
//    recurrence matched-filter scan that replaces per-sample std::polar
//    calls with one phasor rotation per row.
//
// Numerical contract: the split-complex kernels reproduce the dense
// mathx::Matrix path bit-for-bit on dense inputs (identical operation order
// per component). The active-set forward product runs vectorised across
// rows on the column-major planes, yet each row still sums its column
// products one by one in ascending column order from +0.0, as the complex
// matvec does; it skips only columns whose coefficient is exactly zero,
// and the padding rows are never written out — so it is bit-identical
// too. The two m-wide or row-wide kernels (adjoint and forward product)
// have per-ISA variants, baseline and AVX2, picked once per process from
// the CPU (NdftPlan::kernel_variant): they are bit-identical because they
// use no FMA and no cross-lane reduction — each lane computes its own
// output with the baseline's operations in the baseline's order. The
// adjoint also runs over a list of column runs (the solver's working
// set): no column's operation sequence depends on which runs are listed,
// so a run-restricted product equals the full product bit for bit on
// every listed column, and the full product is simply the one-run case.
// The gradient on a working set of several runs packs those columns of
// the row-major planes into the workspace and runs the same adjoint on
// the pack as one run, which by the same argument gives the same bits.
// The recurrence scans differ from per-point evaluation at the ~1e-13
// relative level over bench-length scans.
// tests/test_core_ndft_kernels.cpp pins all of this, the solves, the
// forward product, the packed working set and the run-restricted kernels
// bitwise.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace chronos::core {

/// Uniform grid of candidate delays for the recovered profile. For two-way
/// combined channels the axis is u = 2*tau (first peak at twice the ToF).
struct DelayGrid {
  /// The most columns a grid may have: about 16x the widest grid the repo
  /// builds (the 0-400 ns / 0.1 ns default, 4001 columns). A plan holds
  /// rows x columns complex entries in each of its two layouts, and a
  /// workspace reserves rows x columns more for its packed working set.
  static constexpr std::size_t kMaxColumns = std::size_t{1} << 16;

  double min_s = 0.0;
  double max_s = 400e-9;
  double step_s = 0.1e-9;

  /// The column count floor((max - min) / step) + 1. Requires finite
  /// bounds with max > min, step > 0, and at most kMaxColumns columns.
  std::size_t size() const;
  double delay_at(std::size_t i) const;
};

/// A half-open range [lo, hi) of delay-grid columns.
struct ColumnRun {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  friend bool operator==(const ColumnRun&, const ColumnRun&) = default;
};

class NdftPlan;

/// Scratch for the allocation-free solver loops; the solvers keep one per
/// thread, and the kernels below read and write the one they are given.
/// `bind` sizes every buffer for an (n rows, m cols) plan; it reallocates
/// only when the bound shape grows, so reusing one workspace across solves
/// of the same pipeline performs no allocation at all after the first call.
/// Bind it again before using it with another plan: a plan dies with its
/// solvers, so a new plan can take a freed plan's address, and only bind()
/// drops a pack taken from the old one. Every solver entry point binds
/// first.
struct NdftWorkspace {
  // Split measurement vector (n).
  std::vector<double> h_re, h_im;
  // Residual (n): the gradient's input F y - h, or the gap check's
  // h - F p.
  std::vector<double> fp_re, fp_im;
  // Gradient F^H (F y - h) (m); the gap check's F^H (h - F p).
  std::vector<double> grad_re, grad_im;
  // Iterates (m). FISTA additionally uses the extrapolated point y.
  std::vector<double> p_re, p_im;
  std::vector<double> y_re, y_im;
  // The backtracking step's candidate q = prox(y - s grad) on the working
  // set (m; entries outside ws.work are stale and never read).
  std::vector<double> q_re, q_im;
  // Row vectors (n): F q at the candidate, F p at the iterate (the last
  // accepted F q), and F y at the extrapolated point, combined from the
  // other two as (1 + beta) F q - beta F p instead of a forward product.
  std::vector<double> fq_re, fq_im;
  std::vector<double> fit_re, fit_im;
  std::vector<double> fy_re, fy_im;
  // Ascending indices of the (exactly) nonzero columns of the solvers'
  // extrapolated point y, which the gap check keeps in the working set.
  std::vector<std::uint32_t> active;
  // Ascending indices of the columns of the candidate q with any bit set
  // (-0.0 included): the columns its forward product reads. Once q is
  // accepted they are the iterate p's, over which the gap check sums |p|
  // and which it keeps in the working set (it reads F p from fit).
  std::vector<std::uint32_t> support;
  // The working set W as ascending, disjoint column runs: the only columns
  // the gradient (NdftPlan::gradient_from_residual) computes and the
  // solvers' proximal step updates. bind() resets it to one run over every
  // column.
  std::vector<ColumnRun> work;
  // The packed working set of the gradient (gradient_from_residual):
  // the columns of pack_runs, taken from pack_plan's row-major planes and
  // stored row-major (n x |W|, row r's |W| entries contiguous), so the
  // adjoint reads them as one run; pack_grad holds the adjoint on them
  // (|W|) until it is written back to grad at W's columns. The gradient
  // rebuilds the pack whenever ws.work or the plan differs from what it
  // was packed from, whether a gap check or a caller changed ws.work;
  // bind() empties it. bind() reserves n x m per plane, so a pack never
  // reallocates.
  std::vector<double> pack_re, pack_im;
  std::vector<double> pack_grad_re, pack_grad_im;
  std::vector<ColumnRun> pack_runs;
  const NdftPlan* pack_plan = nullptr;

  void bind(std::size_t rows, std::size_t cols);
};

/// Immutable precomputation for one (row frequencies, delay grid, row
/// weights) triple. Thread-safe to share: every method is const and touches
/// only immutable state.
class NdftPlan {
 public:
  /// Builds F in both layouts and gamma for one key; empty weights mean
  /// all ones. Two builds of one key hold the same bits.
  NdftPlan(std::vector<double> row_freqs_hz, DelayGrid grid,
           std::vector<double> row_weights);

  /// The variant of the adjoint and forward kernels this process runs:
  /// "avx2" on an x86 CPU with AVX2 under a GNU-compatible compiler,
  /// "baseline" otherwise. Fixed for the process; every variant produces
  /// the same bits.
  static const char* kernel_variant();

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return m_; }
  const std::vector<double>& row_freqs_hz() const { return freqs_; }
  const std::vector<double>& row_weights() const { return weights_; }
  const DelayGrid& grid() const { return grid_; }
  /// F's entry (r, c), from the row-major planes.
  std::complex<double> at(std::size_t r, std::size_t c) const {
    return {re_[r * m_ + c], im_[r * m_ + c]};
  }
  /// 1/sigma^2 for the estimate sigma of ||F||_2 that 30 power iterations
  /// on F^H F (forward_active and adjoint) take from a fixed-seed Gaussian
  /// start: the paper's Algorithm 1 step. sigma is a Rayleigh quotient
  /// ||F x||, so it approaches ||F||_2 from below, and gamma can exceed
  /// 1/||F||_2^2 (by 1.27% on the ranging plan), which Algorithm 1's
  /// convergence bound does not cover; ISTA and FISTA use it only as the
  /// reference their backtracking step starts from, and their descent
  /// test guards every step. Zero for degenerate plans (all-zero weights)
  /// — the solvers then take zero-length steps and converge immediately
  /// to p = 0.
  double gamma() const { return gamma_; }

  /// out = F p walking only the listed columns (ascending); out_re/out_im
  /// are length rows(). Reads the column-major planes, vectorised across
  /// rows; each row sums its column products in the order listed.
  /// Bit-identical to the dense complex matvec when every column absent
  /// from `cols` holds an exact zero.
  void forward_active(const double* p_re, const double* p_im,
                      std::span<const std::uint32_t> cols, double* out_re,
                      double* out_im) const;

  /// out = F^H x: x is length rows(), out is length cols().
  void adjoint(const double* x_re, const double* x_im, double* out_re,
               double* out_im) const;
  /// out = F^H x on the columns of `runs` (ascending, disjoint) only; the
  /// other out entries are left as they were.
  void adjoint(const double* x_re, const double* x_im,
               std::span<const ColumnRun> runs, double* out_re,
               double* out_im) const;

  /// The gradient of the data term given its residual: ws.grad = F^H
  /// ws.fp on the columns of ws.work (other grad entries are left as they
  /// were). A working set of one run is contiguous in the plan's planes
  /// already; one of several runs is packed into ws.pack_re and ws.pack_im
  /// (repacked only when ws.work or the plan has changed) and the adjoint
  /// runs on the pack.
  void gradient_from_residual(NdftWorkspace& ws) const;

  /// out[k] = |sum_i h_i e^{+j 2 pi f_i (u0 + k du)}| for k in [0, count).
  /// One complex rotation per row per step (the geometric-sequence trick of
  /// the matrix constructor) instead of a std::polar per row per step; the
  /// rotators are re-anchored periodically so magnitude drift stays at the
  /// ulp level over arbitrarily long scans.
  void matched_filter_scan(std::span<const std::complex<double>> h, double u0,
                           double du, std::size_t count,
                           double* out) const;

  /// Single-point matched filter |sum_i h_i e^{+j 2 pi f_i u}| (exact
  /// per-point evaluation, shared by the scan anchors).
  double matched_filter(std::span<const std::complex<double>> h,
                        double u) const;

 private:
  std::vector<double> freqs_;
  std::vector<double> weights_;
  DelayGrid grid_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  // Split-complex row-major planes of F (n_ x m_ each): the adjoint's.
  std::vector<double> re_, im_;
  // Split-complex column-major planes of F (m_ x n_pad_ each, column c's
  // rows at c * n_pad_; rows n_ .. n_pad_ - 1 hold zeros): the forward
  // product's.
  std::size_t n_pad_ = 0;
  std::vector<double> col_re_, col_im_;
  double gamma_ = 0.0;
};

}  // namespace chronos::core
