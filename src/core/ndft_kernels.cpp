#include "core/ndft_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"

// Non-aliasing hint for the kernel hot loops: lets the vectorizer drop the
// runtime overlap checks it otherwise versions the loops with.
#if defined(__GNUC__) || defined(__clang__)
#define CHRONOS_RESTRICT __restrict__
#elif defined(_MSC_VER)
#define CHRONOS_RESTRICT __restrict
#else
#define CHRONOS_RESTRICT
#endif

// Run-time ISA dispatch for the solver kernels (adjoint and forward
// product). Each keeps one loop body, force-inlined into its NdftPlan
// method (the baseline variant) and, on x86 GNU-compatible compilers,
// into a wrapper compiled for AVX2; a process-wide flag read
// from the CPU picks the variant. target("avx2") does not enable FMA and
// the loops vectorise across independent outputs (columns, or rows for the
// forward product), so both variants produce the same bits. The explicit
// wrapper replaces target_clones on purpose: its ifunc resolver runs
// before the ThreadSanitizer runtime is up (a crash before main under
// -fsanitize=thread), and ifunc does not exist on musl or macOS.
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
#define CHRONOS_KERNEL_AVX2 1
#define CHRONOS_KERNEL_BODY [[gnu::always_inline]] inline
#else
#define CHRONOS_KERNEL_AVX2 0
#define CHRONOS_KERNEL_BODY inline
#endif

namespace chronos::core {

namespace {

bool cpu_has_avx2() {
#if CHRONOS_KERNEL_AVX2
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

/// out = F^H x over split-complex row-major planes (n x m), on the columns
/// of `runs` (ascending, disjoint) only.
CHRONOS_KERNEL_BODY void adjoint_body(const double* re, const double* im,
                                      std::size_t n, std::size_t m,
                                      const ColumnRun* runs,
                                      std::size_t run_count,
                                      const double* x_re, const double* x_im,
                                      double* CHRONOS_RESTRICT out_re,
                                      double* CHRONOS_RESTRICT out_im) {
  // lint:region(no-alloc)
  for (std::size_t k = 0; k < run_count; ++k) {
    std::fill(out_re + runs[k].lo, out_re + runs[k].hi, 0.0);
    std::fill(out_im + runs[k].lo, out_im + runs[k].hi, 0.0);
  }
  // out[c] += conj(F[r][c]) * x[r]. Every out[c] receives one addend per
  // row, applied in row order, so vectorising the column loop keeps the
  // legacy accumulation order per component, whichever runs hold c. Rows
  // are blocked by four to amortise the out-plane read/modify/write
  // traffic (which otherwise dominates: n passes over 2m doubles vs one
  // pass over the 2nm planes); within a block the four addends stay
  // sequential, preserving order.
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const double* CHRONOS_RESTRICT fr0 = re + (r + 0) * m;
    const double* CHRONOS_RESTRICT fr1 = re + (r + 1) * m;
    const double* CHRONOS_RESTRICT fr2 = re + (r + 2) * m;
    const double* CHRONOS_RESTRICT fr3 = re + (r + 3) * m;
    const double* CHRONOS_RESTRICT fi0 = im + (r + 0) * m;
    const double* CHRONOS_RESTRICT fi1 = im + (r + 1) * m;
    const double* CHRONOS_RESTRICT fi2 = im + (r + 2) * m;
    const double* CHRONOS_RESTRICT fi3 = im + (r + 3) * m;
    const double xr0 = x_re[r + 0], xi0 = x_im[r + 0];
    const double xr1 = x_re[r + 1], xi1 = x_im[r + 1];
    const double xr2 = x_re[r + 2], xi2 = x_im[r + 2];
    const double xr3 = x_re[r + 3], xi3 = x_im[r + 3];
    for (std::size_t k = 0; k < run_count; ++k) {
      for (std::size_t c = runs[k].lo; c < runs[k].hi; ++c) {
        double acc_re = out_re[c];
        double acc_im = out_im[c];
        acc_re += fr0[c] * xr0 + fi0[c] * xi0;
        acc_im += fr0[c] * xi0 - fi0[c] * xr0;
        acc_re += fr1[c] * xr1 + fi1[c] * xi1;
        acc_im += fr1[c] * xi1 - fi1[c] * xr1;
        acc_re += fr2[c] * xr2 + fi2[c] * xi2;
        acc_im += fr2[c] * xi2 - fi2[c] * xr2;
        acc_re += fr3[c] * xr3 + fi3[c] * xi3;
        acc_im += fr3[c] * xi3 - fi3[c] * xr3;
        out_re[c] = acc_re;
        out_im[c] = acc_im;
      }
    }
  }
  for (; r < n; ++r) {
    const double* CHRONOS_RESTRICT fr = re + r * m;
    const double* CHRONOS_RESTRICT fi = im + r * m;
    const double xr = x_re[r];
    const double xi = x_im[r];
    for (std::size_t k = 0; k < run_count; ++k) {
      for (std::size_t c = runs[k].lo; c < runs[k].hi; ++c) {
        out_re[c] += fr[c] * xr + fi[c] * xi;
        out_im[c] += fr[c] * xi - fi[c] * xr;
      }
    }
  }
  // lint:endregion(no-alloc)
}

/// The forward product's row block: the four doubles of one AVX2 vector.
/// The column-major planes pad each column's rows to a multiple of it.
constexpr std::size_t kRowLanes = 4;

/// out = F p over the `count` listed columns (ascending), from the
/// column-major planes (column c's n_pad rows at c * n_pad, rows n and up
/// zero). out_re/out_im are length n.
CHRONOS_KERNEL_BODY void forward_body(const double* col_re,
                                      const double* col_im, std::size_t n,
                                      std::size_t n_pad,
                                      const std::uint32_t* cols,
                                      std::size_t count, const double* p_re,
                                      const double* p_im,
                                      double* CHRONOS_RESTRICT out_re,
                                      double* CHRONOS_RESTRICT out_im) {
  // lint:region(no-alloc)
  // Each block of kRowLanes rows keeps its accumulators over the whole
  // column list: every row adds one product per column, from +0.0, in
  // ascending column order (the legacy complex matvec's sequence), while
  // the block's rows run side by side in one vector. Skipped columns hold
  // exact zeros, whose products (+-0.0) would leave an accumulator
  // bit-unchanged anyway. The padding rows are computed and dropped.
  for (std::size_t r0 = 0; r0 < n_pad; r0 += kRowLanes) {
    double acc_re[kRowLanes] = {};
    double acc_im[kRowLanes] = {};
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t c = cols[j];
      const double pr = p_re[c];
      const double pi = p_im[c];
      const double* CHRONOS_RESTRICT fr = col_re + c * n_pad + r0;
      const double* CHRONOS_RESTRICT fi = col_im + c * n_pad + r0;
      for (std::size_t l = 0; l < kRowLanes; ++l) {
        acc_re[l] += fr[l] * pr - fi[l] * pi;
        acc_im[l] += fr[l] * pi + fi[l] * pr;
      }
    }
    const std::size_t live = std::min(kRowLanes, n - r0);
    for (std::size_t l = 0; l < live; ++l) {
      out_re[r0 + l] = acc_re[l];
      out_im[r0 + l] = acc_im[l];
    }
  }
  // lint:endregion(no-alloc)
}

#if CHRONOS_KERNEL_AVX2
[[gnu::target("avx2")]] void forward_avx2(
    const double* col_re, const double* col_im, std::size_t n,
    std::size_t n_pad, const std::uint32_t* cols, std::size_t count,
    const double* p_re, const double* p_im, double* out_re, double* out_im) {
  forward_body(col_re, col_im, n, n_pad, cols, count, p_re, p_im, out_re,
               out_im);
}

[[gnu::target("avx2")]] void adjoint_avx2(
    const double* re, const double* im, std::size_t n, std::size_t m,
    const ColumnRun* runs, std::size_t run_count, const double* x_re,
    const double* x_im, double* out_re, double* out_im) {
  adjoint_body(re, im, n, m, runs, run_count, x_re, x_im, out_re, out_im);
}
#endif

/// out = F^H x over row-major planes (n x m) on the columns of `runs`, in
/// the variant the CPU picks.
void adjoint_kernel(const double* re, const double* im, std::size_t n,
                    std::size_t m, std::span<const ColumnRun> runs,
                    const double* x_re, const double* x_im, double* out_re,
                    double* out_im) {
#if CHRONOS_KERNEL_AVX2
  if (cpu_has_avx2()) {
    adjoint_avx2(re, im, n, m, runs.data(), runs.size(), x_re, x_im, out_re,
                 out_im);
    return;
  }
#endif
  adjoint_body(re, im, n, m, runs.data(), runs.size(), x_re, x_im, out_re,
               out_im);
}

/// ||F||_2 by 30 power iterations on F^H F from a fixed-seed Gaussian
/// start (real, then imaginary part per column), as the Rayleigh quotient
/// ||F x|| of the normalised iterate; 0 once F^H F x vanishes.
double spectral_norm(const NdftPlan& plan) {
  const auto norm = [](const std::vector<double>& re,
                       const std::vector<double>& im) {
    double acc = 0.0;
    for (std::size_t i = 0; i < re.size(); ++i) {
      acc += re[i] * re[i] + im[i] * im[i];
    }
    return std::sqrt(acc);
  };
  std::mt19937_64 rng(0x9E3779B97F4A7C15ull);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> x_re(plan.cols()), x_im(plan.cols());
  for (std::size_t k = 0; k < plan.cols(); ++k) {
    x_re[k] = gauss(rng);
    x_im[k] = gauss(rng);
  }
  std::vector<std::uint32_t> all(plan.cols());
  std::iota(all.begin(), all.end(), 0u);
  std::vector<double> fx_re(plan.rows()), fx_im(plan.rows());
  plan.forward_active(x_re.data(), x_im.data(), all, fx_re.data(),
                      fx_im.data());
  double sigma = 0.0;
  for (int it = 0; it < 30; ++it) {
    plan.adjoint(fx_re.data(), fx_im.data(), x_re.data(), x_im.data());
    const double x_norm = norm(x_re, x_im);
    if (x_norm == 0.0) return 0.0;
    for (std::size_t k = 0; k < plan.cols(); ++k) {
      x_re[k] /= x_norm;
      x_im[k] /= x_norm;
    }
    plan.forward_active(x_re.data(), x_im.data(), all, fx_re.data(),
                        fx_im.data());
    sigma = norm(fx_re, fx_im);
  }
  return sigma;
}

}  // namespace

const char* NdftPlan::kernel_variant() {
  return cpu_has_avx2() ? "avx2" : "baseline";
}

std::size_t DelayGrid::size() const {
  CHRONOS_EXPECTS(std::isfinite(min_s) && std::isfinite(max_s) &&
                      max_s > min_s && step_s > 0.0,
                  "bad delay grid");
  // (max-min)/step can land just below the true quotient when the span is an
  // exact multiple of the step (150e-9 / 0.125e-9 evaluates to 1199.99...98),
  // silently dropping the end point. A relative epsilon nudge keeps grids
  // specified as a whole number of steps inclusive of max_s while leaving
  // genuinely fractional spans truncated as before.
  const double q = (max_s - min_s) / step_s;
  const double nudged =
      q * (1.0 + 4.0 * std::numeric_limits<double>::epsilon());
  // Converting a double that does not fit std::size_t is undefined (an
  // infinite span or a 1e-300 step would reach the cast), so the cap is
  // checked on the double (the ubsan preset's float-cast-overflow check
  // catches a cast that escapes it).
  CHRONOS_EXPECTS(nudged < static_cast<double>(kMaxColumns),
                  "delay grid has more than DelayGrid::kMaxColumns columns");
  return static_cast<std::size_t>(nudged) + 1;
}

double DelayGrid::delay_at(std::size_t i) const {
  return min_s + static_cast<double>(i) * step_s;
}

void NdftWorkspace::bind(std::size_t rows, std::size_t cols) {
  h_re.resize(rows);
  h_im.resize(rows);
  fp_re.resize(rows);
  fp_im.resize(rows);
  grad_re.resize(cols);
  grad_im.resize(cols);
  p_re.resize(cols);
  p_im.resize(cols);
  y_re.resize(cols);
  y_im.resize(cols);
  q_re.resize(cols);
  q_im.resize(cols);
  fq_re.resize(rows);
  fq_im.resize(rows);
  fit_re.resize(rows);
  fit_im.resize(rows);
  fy_re.resize(rows);
  fy_im.resize(rows);
  // Reserve up front: the solver loops push column indices per iteration
  // after clear(), which must never reallocate.
  active.reserve(cols);
  active.clear();
  support.reserve(cols);
  support.clear();
  // Disjoint runs over cols columns are separated by at least one column
  // outside every run, so there are at most (cols + 1) / 2 of them.
  work.reserve((cols + 1) / 2);
  work.assign(1, ColumnRun{0, static_cast<std::uint32_t>(cols)});
  // The pack holds at most every column; reserved, not sized, so only the
  // pages a pack writes are touched.
  pack_re.reserve(rows * cols);
  pack_im.reserve(rows * cols);
  pack_grad_re.resize(cols);
  pack_grad_im.resize(cols);
  pack_runs.reserve((cols + 1) / 2);
  pack_runs.clear();
  pack_plan = nullptr;
}

NdftPlan::NdftPlan(std::vector<double> row_freqs_hz, DelayGrid grid,
                   std::vector<double> row_weights)
    : freqs_(std::move(row_freqs_hz)),
      weights_(std::move(row_weights)),
      grid_(grid) {
  CHRONOS_EXPECTS(!freqs_.empty(), "need at least one row frequency");
  if (weights_.empty()) {
    weights_.assign(freqs_.size(), 1.0);
  }
  CHRONOS_EXPECTS(weights_.size() == freqs_.size(),
                  "row weight count must match row count");
  for (double w : weights_)
    CHRONOS_EXPECTS(w >= 0.0, "row weights must be non-negative");

  n_ = freqs_.size();
  m_ = grid_.size();
  n_pad_ = (n_ + kRowLanes - 1) / kRowLanes * kRowLanes;
  re_.resize(n_ * m_);
  im_.resize(n_ * m_);
  // The column-major planes hold the same entries; padding rows stay zero.
  col_re_.assign(m_ * n_pad_, 0.0);
  col_im_.assign(m_ * n_pad_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    // Row entries are a geometric sequence in the column index:
    // e^{-j2pi f (tau0 + k step)} = e^{-j2pi f tau0} * (e^{-j2pi f step})^k.
    const std::complex<double> start =
        weights_[i] *
        std::polar(1.0, -mathx::kTwoPi * freqs_[i] * grid_.min_s);
    const std::complex<double> ratio =
        std::polar(1.0, -mathx::kTwoPi * freqs_[i] * grid_.step_s);
    std::complex<double> cur = start;
    for (std::size_t k = 0; k < m_; ++k) {
      re_[i * m_ + k] = col_re_[k * n_pad_ + i] = cur.real();
      im_[i * m_ + k] = col_im_[k * n_pad_ + i] = cur.imag();
      cur *= ratio;
      // Renormalise periodically: the recurrence drifts in magnitude by
      // ~1 ulp per step, which matters over thousands of columns.
      if ((k & 0x3FF) == 0x3FF) {
        const double mag = std::abs(cur);
        if (mag > 0.0) cur *= weights_[i] / mag;
      }
    }
  }
  // The fixed-seed power iteration makes gamma a pure function of the key,
  // so two builds of one key hold the same bits.
  // All-zero weights give sigma == 0; such degenerate plans must not
  // assert — gamma = 0 makes the solvers take zero-length steps and
  // converge immediately to p = 0 (pinned by the degenerate-input tests).
  const double sigma = spectral_norm(*this);
  gamma_ = sigma > 0.0 ? 1.0 / (sigma * sigma) : 0.0;
}

void NdftPlan::forward_active(const double* p_re, const double* p_im,
                              std::span<const std::uint32_t> cols,
                              double* out_re, double* out_im) const {
#if CHRONOS_KERNEL_AVX2
  if (cpu_has_avx2()) {
    forward_avx2(col_re_.data(), col_im_.data(), n_, n_pad_, cols.data(),
                 cols.size(), p_re, p_im, out_re, out_im);
    return;
  }
#endif
  forward_body(col_re_.data(), col_im_.data(), n_, n_pad_, cols.data(),
               cols.size(), p_re, p_im, out_re, out_im);
}

void NdftPlan::adjoint(const double* x_re, const double* x_im,
                       double* out_re, double* out_im) const {
  const ColumnRun all{0, static_cast<std::uint32_t>(m_)};
  adjoint(x_re, x_im, std::span<const ColumnRun>(&all, 1), out_re, out_im);
}

void NdftPlan::adjoint(const double* x_re, const double* x_im,
                       std::span<const ColumnRun> runs, double* out_re,
                       double* out_im) const {
  adjoint_kernel(re_.data(), im_.data(), n_, m_, runs, x_re, x_im, out_re,
                 out_im);
}

void NdftPlan::gradient_from_residual(NdftWorkspace& ws) const {
  if (ws.work.size() <= 1) {
    adjoint(ws.fp_re.data(), ws.fp_im.data(), ws.work, ws.grad_re.data(),
            ws.grad_im.data());
    return;
  }
  // lint:region(no-alloc)
  // Several runs (about 30 of a few columns each on office channels): the
  // adjoint walks their columns packed as one run, so its vector loop
  // runs long. W changes only when a gap check rebuilds it, so the pack is
  // rebuilt only when ws.work differs from the runs it holds.
  if (ws.pack_plan != this || ws.pack_runs != ws.work) {
    std::size_t w = 0;
    for (const ColumnRun run : ws.work) w += run.hi - run.lo;
    // lint:allow(no-alloc): bind() reserves rows x cols for the pack
    ws.pack_re.resize(n_ * w);
    // lint:allow(no-alloc): bind() reserves rows x cols for the pack
    ws.pack_im.resize(n_ * w);
    for (std::size_t r = 0; r < n_; ++r) {
      double* dst_re = ws.pack_re.data() + r * w;
      double* dst_im = ws.pack_im.data() + r * w;
      for (const ColumnRun run : ws.work) {
        dst_re = std::copy(re_.data() + r * m_ + run.lo,
                           re_.data() + r * m_ + run.hi, dst_re);
        dst_im = std::copy(im_.data() + r * m_ + run.lo,
                           im_.data() + r * m_ + run.hi, dst_im);
      }
    }
    // Copy-assigned within the capacity bind() reserves: no reallocation.
    ws.pack_runs = ws.work;
    ws.pack_plan = this;
  }
  const std::size_t w = ws.pack_re.size() / n_;
  const ColumnRun packed{0, static_cast<std::uint32_t>(w)};
  adjoint_kernel(ws.pack_re.data(), ws.pack_im.data(), n_, w,
                 std::span<const ColumnRun>(&packed, 1), ws.fp_re.data(),
                 ws.fp_im.data(), ws.pack_grad_re.data(),
                 ws.pack_grad_im.data());
  std::size_t j = 0;
  for (const ColumnRun run : ws.work) {
    const std::size_t len = run.hi - run.lo;
    std::copy_n(ws.pack_grad_re.data() + j, len, ws.grad_re.data() + run.lo);
    std::copy_n(ws.pack_grad_im.data() + j, len, ws.grad_im.data() + run.lo);
    j += len;
  }
  // lint:endregion(no-alloc)
}

double NdftPlan::matched_filter(std::span<const std::complex<double>> h,
                                double u) const {
  CHRONOS_EXPECTS(h.size() == n_, "channel vector/row count mismatch");
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t i = 0; i < n_; ++i) {
    acc += h[i] * std::polar(1.0, mathx::kTwoPi * freqs_[i] * u);
  }
  return std::abs(acc);
}

void NdftPlan::matched_filter_scan(std::span<const std::complex<double>> h,
                                   double u0, double du, std::size_t count,
                                   double* out) const {
  CHRONOS_EXPECTS(h.size() == n_, "channel vector/row count mismatch");
  if (count == 0) return;

  // Per-row rotators q_i = h_i e^{+j2pi f_i u}, advanced by one complex
  // multiply per step. Re-anchored from std::polar every kReanchor steps so
  // accumulated phase/magnitude rounding stays below ~1e-13 relative for
  // scans of any length.
  constexpr std::size_t kReanchor = 256;
  constexpr std::size_t kStackRows = 64;
  double stack_buf[4 * kStackRows];
  std::vector<double> heap_buf;
  double* buf = stack_buf;
  if (n_ > kStackRows) {
    heap_buf.resize(4 * n_);
    buf = heap_buf.data();
  }
  double* q_re = buf;
  double* q_im = buf + n_;
  double* rot_re = buf + 2 * n_;
  double* rot_im = buf + 3 * n_;

  // lint:region(no-alloc)  — everything per-step runs on the buffers above
  for (std::size_t i = 0; i < n_; ++i) {
    const std::complex<double> ratio =
        std::polar(1.0, mathx::kTwoPi * freqs_[i] * du);
    rot_re[i] = ratio.real();
    rot_im[i] = ratio.imag();
  }

  for (std::size_t k = 0; k < count; ++k) {
    if (k % kReanchor == 0) {
      const double u = u0 + static_cast<double>(k) * du;
      for (std::size_t i = 0; i < n_; ++i) {
        const std::complex<double> q =
            h[i] * std::polar(1.0, mathx::kTwoPi * freqs_[i] * u);
        q_re[i] = q.real();
        q_im[i] = q.imag();
      }
    }
    double acc_re = 0.0;
    double acc_im = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      acc_re += q_re[i];
      acc_im += q_im[i];
      const double nr = q_re[i] * rot_re[i] - q_im[i] * rot_im[i];
      const double ni = q_re[i] * rot_im[i] + q_im[i] * rot_re[i];
      q_re[i] = nr;
      q_im[i] = ni;
    }
    out[k] = std::sqrt(acc_re * acc_re + acc_im * acc_im);
  }
  // lint:endregion(no-alloc)
}

}  // namespace chronos::core
