#include "core/ndft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"
#include "mathx/cvec.hpp"

namespace chronos::core {

namespace {

/// Scratch for the workspace-less solver overloads. Thread-local so the
/// batched runtime's workers never contend or share buffers.
NdftWorkspace& tls_workspace() {
  thread_local NdftWorkspace ws;
  return ws;
}

void split_into(std::span<const std::complex<double>> v, std::vector<double>& re,
                std::vector<double>& im) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    re[i] = v[i].real();
    im[i] = v[i].imag();
  }
}

std::vector<std::complex<double>> merge_planes(std::span<const double> re,
                                               std::span<const double> im) {
  std::vector<std::complex<double>> out(re.size());
  for (std::size_t i = 0; i < re.size(); ++i) out[i] = {re[i], im[i]};
  return out;
}

/// ||F p - h||_2 with the forward product restricted to `cols` (must list
/// every column of p with a nonzero value, ascending). Matches the legacy
/// dense residual computation bit-for-bit.
double residual_norm_active(const NdftPlan& plan, NdftWorkspace& ws,
                            std::span<const std::uint32_t> cols) {
  plan.forward_active(ws.p_re.data(), ws.p_im.data(), cols, ws.fp_re.data(),
                      ws.fp_im.data());
  double acc = 0.0;
  for (std::size_t r = 0; r < plan.rows(); ++r) {
    const double dr = ws.fp_re[r] - ws.h_re[r];
    const double di = ws.fp_im[r] - ws.h_im[r];
    acc += dr * dr + di * di;
  }
  return std::sqrt(acc);
}

/// One gradient evaluation at (y_re, y_im), routed per IstaOptions mode.
/// ws.active must list y's nonzero columns and ws.b must hold F^H h (the
/// scatter arm consumes it; the dense arm ignores it).
void dispatch_gradient(const NdftPlan& plan, IstaOptions::GradientMode mode,
                       const double* y_re, const double* y_im,
                       NdftWorkspace& ws) {
  if (mode == IstaOptions::GradientMode::kAuto &&
      plan.pick_arm(ws.active.size()) == NdftPlan::GradientArm::kScatter) {
    plan.gradient_toeplitz_scatter(y_re, y_im, ws);
  } else {
    plan.gradient(y_re, y_im, ws);
  }
}

}  // namespace

NdftSolver::NdftSolver(std::vector<double> row_freqs_hz, DelayGrid grid,
                       std::vector<double> row_weights)
    : plan_(NdftPlan::get_or_create(row_freqs_hz, grid, row_weights)) {}

void NdftSolver::sparsify(std::span<std::complex<double>> p,
                          double threshold) {
  CHRONOS_EXPECTS(threshold >= 0.0, "negative soft threshold");
  // Squared-magnitude comparison first: only the few survivors above the
  // threshold pay for a square root (the iterate is sparse, so that is
  // almost none of the grid).
  const double thr_sq = threshold * threshold;
  for (auto& v : p) {
    const double msq = std::norm(v);
    if (msq <= thr_sq) {
      v = {0.0, 0.0};
    } else {
      const double mag = std::sqrt(msq);
      v *= (mag - threshold) / mag;
    }
  }
}

namespace {

double effective_alpha(const NdftPlan& plan, const NdftWorkspace& ws,
                       const IstaOptions& opts) {
  CHRONOS_EXPECTS(opts.alpha > 0.0, "alpha must be positive");
  // Scale-free knob: alpha relative to the strongest matched-filter
  // response max|F^H h| (the largest gradient magnitude at p = 0). The
  // caller has already computed F^H h into ws.b — the same vector the
  // Toeplitz scatter arm consumes — so alpha is bit-identical across
  // gradient modes and costs no extra adjoint.
  // Argmax over squared magnitudes (|.| is monotone in |.|^2), then a single
  // exact std::abs at the winner — same peak value as the legacy per-element
  // std::abs pass without thousands of hypot calls.
  double peak_sq = 0.0;
  std::size_t peak_k = 0;
  for (std::size_t k = 0; k < plan.cols(); ++k) {
    const double msq = ws.b_re[k] * ws.b_re[k] + ws.b_im[k] * ws.b_im[k];
    if (msq > peak_sq) {
      peak_sq = msq;
      peak_k = k;
    }
  }
  const double peak =
      std::abs(std::complex<double>{ws.b_re[peak_k], ws.b_im[peak_k]});
  // An all-zero channel (or an all-zero-weight plan) has no scale to be
  // relative to. Alpha 0 keeps the threshold at 0 and the solvers converge
  // immediately to p = 0 instead of asserting (degenerate-input contract,
  // pinned by the robustness table test).
  if (peak == 0.0) return 0.0;
  return opts.alpha * peak;
}

}  // namespace

std::vector<std::complex<double>> NdftSolver::synthesize(
    std::span<const std::complex<double>> p) const {
  return plan_->matrix().multiply(p);
}

std::vector<std::complex<double>> NdftSolver::apply_weights(
    std::span<const std::complex<double>> h) const {
  const auto& weights = plan_->row_weights();
  CHRONOS_EXPECTS(h.size() == weights.size(),
                  "weight application size mismatch");
  std::vector<std::complex<double>> out(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) out[i] = weights[i] * h[i];
  return out;
}

double NdftSolver::matched_filter(std::span<const std::complex<double>> h,
                                  double delay_s) const {
  return plan_->matched_filter(h, delay_s);
}

void NdftSolver::matched_filter_scan(std::span<const std::complex<double>> h,
                                     double u0, double du, std::size_t count,
                                     std::span<double> out) const {
  CHRONOS_EXPECTS(out.size() >= count, "scan output buffer too small");
  plan_->matched_filter_scan(h, u0, du, count, out.data());
}

double NdftSolver::refine_delay(std::span<const std::complex<double>> h,
                                double coarse_delay_s,
                                double half_width_s) const {
  CHRONOS_EXPECTS(half_width_s > 0.0, "refinement window must be positive");
  // The matched filter oscillates with ~0.2 ns sidelobes, so a plain
  // ternary search is not safe over the whole window: first scan finely to
  // land on the mainlobe, then ternary-search the winning sub-interval.
  const double lo0 = coarse_delay_s - half_width_s;
  const double hi0 = coarse_delay_s + half_width_s;
  constexpr int kScanPoints = 61;
  const double scan_step = (hi0 - lo0) / (kScanPoints - 1);
  double scan[kScanPoints];
  plan_->matched_filter_scan(h, lo0, scan_step, kScanPoints, scan);
  int best_i = 0;
  for (int i = 1; i < kScanPoints; ++i) {
    if (scan[i] > scan[best_i]) best_i = i;
  }
  const double best_u = lo0 + scan_step * best_i;
  double lo = best_u - scan_step;
  double hi = best_u + scan_step;
  for (int it = 0; it < 50; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (plan_->matched_filter(h, m1) < plan_->matched_filter(h, m2)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  return (lo + hi) / 2.0;
}

namespace {

/// Pass one of the proximal step: writes, in ascending order and without a
/// branch, the columns whose point y - gamma * grad has |.|^2 > thr_sq (the
/// columns that shrink to a nonzero value) to ws.survivors; returns how
/// many it wrote.
std::size_t collect_survivors(NdftWorkspace& ws, std::size_t m, double gamma,
                              double thr_sq) {
  const double* y_re = ws.y_re.data();
  const double* y_im = ws.y_im.data();
  const double* g_re = ws.grad_re.data();
  const double* g_im = ws.grad_im.data();
  std::uint32_t* out = ws.survivors.data();
  std::size_t count = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const double pr = y_re[k] - gamma * g_re[k];
    const double pi = y_im[k] - gamma * g_im[k];
    out[count] = static_cast<std::uint32_t>(k);
    count += static_cast<std::size_t>(pr * pr + pi * pi > thr_sq);
  }
  return count;
}

/// ws.visit = the ascending union of the first `survivor_count` survivors,
/// ws.support and ws.active (each ascending).
void collect_visit(NdftWorkspace& ws, std::size_t survivor_count) {
  constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();
  const std::uint32_t* s = ws.survivors.data();
  const std::span<const std::uint32_t> p = ws.support;
  const std::span<const std::uint32_t> y = ws.active;
  std::size_t i = 0, j = 0, k = 0;
  ws.visit.clear();
  // lint:region(no-alloc)
  for (;;) {
    const std::uint32_t vs = i < survivor_count ? s[i] : kEnd;
    const std::uint32_t vp = j < p.size() ? p[j] : kEnd;
    const std::uint32_t vy = k < y.size() ? y[k] : kEnd;
    const std::uint32_t v = std::min({vs, vp, vy});
    if (v == kEnd) break;
    // lint:allow(no-alloc): ws.visit is reserved to cols at bind(), and a
    // set of distinct column indices has at most cols entries
    ws.visit.push_back(v);
    i += static_cast<std::size_t>(vs == v);
    j += static_cast<std::size_t>(vp == v);
    k += static_cast<std::size_t>(vy == v);
  }
  // lint:endregion(no-alloc)
}

/// True when any bit of (re, im) is set: -0.0 counts.
bool any_bit(double re, double im) {
  return (std::bit_cast<std::uint64_t>(re) |
          std::bit_cast<std::uint64_t>(im)) != 0;
}

/// The one proximal-gradient loop: FISTA when `accelerate`, else ISTA (the
/// same loop with the momentum coefficient held at 0).
SparseSolveResult solve_proximal(const NdftPlan& plan,
                                 std::span<const std::complex<double>> h,
                                 const IstaOptions& opts, NdftWorkspace& ws,
                                 bool accelerate) {
  const std::size_t n = plan.rows();
  const std::size_t m = plan.cols();
  CHRONOS_EXPECTS(h.size() == n, "channel vector/row count mismatch");

  ws.bind(n, m);
  split_into(h, ws.h_re, ws.h_im);
  // b = F^H h: the fixed linear term of the Toeplitz scatter arm AND the
  // argmax source for the relative-alpha knob — one adjoint serves both.
  plan.adjoint(ws.h_re.data(), ws.h_im.data(), ws.b_re.data(),
               ws.b_im.data());
  const double alpha = effective_alpha(plan, ws, opts);
  const double h_norm = mathx::norm2(h);
  const double tol = opts.epsilon * std::max(h_norm, 1e-30);
  const double gamma = plan.gamma();
  const double thr = gamma * alpha;
  const double thr_sq = thr * thr;

  SparseSolveResult out;
  out.grid = plan.grid();
  std::fill(ws.p_re.begin(), ws.p_re.end(), 0.0);
  std::fill(ws.p_im.begin(), ws.p_im.end(), 0.0);
  std::fill(ws.y_re.begin(), ws.y_re.end(), 0.0);
  std::fill(ws.y_im.begin(), ws.y_im.end(), 0.0);
  ws.active.clear();   // the extrapolated point y's nonzeros
  ws.support.clear();  // the iterate p's columns with any bit set
  double t_momentum = 1.0;

  // Everything inside this loop works on workspace buffers: no allocation
  // per iteration (tests/test_core_ndft_kernels.cpp counts at runtime;
  // scripts/lint/check_noalloc.py bans allocating constructs in this
  // region at lint time). The gradient is taken at the extrapolated point
  // y, whose support ws.active tracks; ISTA holds the momentum coefficient
  // beta at 0, so its y is the iterate p itself.
  //
  // The proximal step touches only the columns it can change. Outside
  // survivors ∪ supp(p) ∪ supp(y), p and y are exactly +0.0 (supp(p)
  // counts -0.0, and a y that reads zero while p is +0.0 is +0.0 too), so
  // the full-grid update would write +0.0 back and add a +0.0 step to
  // diff_sq: skipping those columns changes no bit. Over the visited
  // columns, in ascending order, shrinkage, momentum extrapolation,
  // convergence accumulation and the rebuild of both supports are fused
  // into one pass: reading p[k] (still the previous iterate) before
  // overwriting it needs no p_prev planes.
  // lint:region(no-alloc)
  for (int t = 0; t < opts.max_iterations; ++t) {
    dispatch_gradient(plan, opts.gradient, ws.y_re.data(), ws.y_im.data(),
                      ws);

    const double t_next =
        (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum)) / 2.0;
    const double beta = accelerate ? (t_momentum - 1.0) / t_next : 0.0;
    collect_visit(ws, collect_survivors(ws, m, gamma, thr_sq));
    ws.support.clear();
    ws.active.clear();
    double diff_sq = 0.0;
    for (const std::uint32_t k : ws.visit) {
      const double pr = ws.y_re[k] - gamma * ws.grad_re[k];
      const double pi = ws.y_im[k] - gamma * ws.grad_im[k];
      double nr = 0.0;
      double ni = 0.0;
      const double msq = pr * pr + pi * pi;
      if (msq > thr_sq) {
        const double mag = std::sqrt(msq);
        const double scale = (mag - thr) / mag;
        nr = pr * scale;
        ni = pi * scale;
      }
      const double step_re = nr - ws.p_re[k];
      const double step_im = ni - ws.p_im[k];
      ws.p_re[k] = nr;
      ws.p_im[k] = ni;
      const double yr = nr + beta * step_re;
      const double yi = ni + beta * step_im;
      ws.y_re[k] = yr;
      ws.y_im[k] = yi;
      diff_sq += step_re * step_re + step_im * step_im;
      if (any_bit(nr, ni)) {
        // lint:allow(no-alloc): ws.support is reserved to cols at bind()
        ws.support.push_back(k);
      }
      if (yr != 0.0 || yi != 0.0) {
        // lint:allow(no-alloc): ws.active is reserved to cols at bind()
        ws.active.push_back(k);
      }
    }
    t_momentum = t_next;

    out.iterations = t + 1;
    if (std::sqrt(diff_sq) < tol) {
      out.converged = true;
      break;
    }
  }
  // lint:endregion(no-alloc)

  // The residual walks supp(p). Its -0.0 columns add exact zeros to
  // accumulators that start at +0.0, so it equals the residual over p's
  // nonzero columns bit for bit.
  out.residual_norm = residual_norm_active(plan, ws, ws.support);
  out.coefficients = merge_planes(ws.p_re, ws.p_im);
  return out;
}

}  // namespace

SparseSolveResult NdftSolver::solve_ista(
    std::span<const std::complex<double>> h, const IstaOptions& opts) const {
  return solve_ista(h, opts, tls_workspace());
}

SparseSolveResult NdftSolver::solve_ista(
    std::span<const std::complex<double>> h, const IstaOptions& opts,
    NdftWorkspace& ws) const {
  return solve_proximal(*plan_, h, opts, ws, /*accelerate=*/false);
}

SparseSolveResult NdftSolver::solve_fista(
    std::span<const std::complex<double>> h, const IstaOptions& opts) const {
  return solve_fista(h, opts, tls_workspace());
}

SparseSolveResult NdftSolver::solve_fista(
    std::span<const std::complex<double>> h, const IstaOptions& opts,
    NdftWorkspace& ws) const {
  return solve_proximal(*plan_, h, opts, ws, /*accelerate=*/true);
}

std::vector<SparseSolveResult> NdftSolver::solve_fista_batch(
    std::span<const std::span<const std::complex<double>>> hs,
    const IstaOptions& opts) const {
  return solve_fista_batch(hs, opts, tls_workspace());
}

std::vector<SparseSolveResult> NdftSolver::solve_fista_batch(
    std::span<const std::span<const std::complex<double>>> hs,
    const IstaOptions& opts, NdftWorkspace& ws) const {
  std::vector<SparseSolveResult> out;
  out.reserve(hs.size());
  // Shared plan + ONE shared workspace: after the first column the
  // iteration loops run allocation-free and every plan-level
  // precomputation (SoA planes, Toeplitz kernel window) stays hot across
  // the panel. Per-column arithmetic stays sequential on purpose:
  // lane-interleaved SoA panels through the same kernels were measured
  // 2-15x SLOWER per RHS at baseline ISA (interleaving wrecks both the
  // unit stride the column-vectorised kernels rely on and the per-column
  // active-set sparsity). Every buffer a solve reads is fully
  // (re)initialised per column and the gradient-arm choice is a pure
  // function of (plan, active-set size), so column k is bit-identical to a
  // standalone solve_fista(hs[k], opts).
  for (const auto& h : hs) {
    out.push_back(solve_fista(h, opts, ws));
  }
  return out;
}

SparseSolveResult NdftSolver::solve_omp(
    std::span<const std::complex<double>> h, std::size_t max_paths) const {
  const NdftPlan& plan = *plan_;
  const mathx::ComplexMatrix& f = plan.matrix();
  const std::size_t n = plan.rows();
  const std::size_t m = plan.cols();
  CHRONOS_EXPECTS(h.size() == n, "channel vector/row count mismatch");
  CHRONOS_EXPECTS(max_paths >= 1 && max_paths <= n,
                  "OMP path count must be in [1, rows]");

  NdftWorkspace& ws = tls_workspace();
  ws.bind(n, m);

  SparseSolveResult out;
  out.grid = plan.grid();
  out.coefficients.assign(m, {0.0, 0.0});

  std::vector<std::size_t> support;
  support.reserve(max_paths);
  // O(1) membership instead of std::find over the support per column.
  std::vector<char> in_support(m, 0);
  std::vector<std::complex<double>> residual(h.begin(), h.end());
  std::vector<std::complex<double>> amplitudes;

  // The active-set Gram G = Fs^H Fs and rhs c = Fs^H h grow by one atom per
  // iteration; entries for already-selected atom pairs never change, so
  // only the new row/column is computed (O(s n) instead of O(s^2 n)).
  mathx::ComplexMatrix gram_full(max_paths, max_paths);
  std::vector<std::complex<double>> rhs_full(max_paths);

  for (std::size_t it = 0; it < max_paths; ++it) {
    // Atom most correlated with the residual (SoA adjoint kernel).
    split_into(residual, ws.fp_re, ws.fp_im);
    plan.adjoint(ws.fp_re.data(), ws.fp_im.data(), ws.grad_re.data(),
                 ws.grad_im.data());
    std::size_t best_k = 0;
    double best_mag = -1.0;
    for (std::size_t k = 0; k < m; ++k) {
      const double mag =
          std::abs(std::complex<double>{ws.grad_re[k], ws.grad_im[k]});
      if (mag > best_mag && !in_support[k]) {
        best_mag = mag;
        best_k = k;
      }
    }
    if (best_mag <= 1e-12) break;
    support.push_back(best_k);
    in_support[best_k] = 1;

    const std::size_t s = support.size();
    for (std::size_t a_i = 0; a_i < s; ++a_i) {
      std::complex<double> to_new{0.0, 0.0};
      for (std::size_t r = 0; r < n; ++r) {
        to_new += std::conj(f(r, support[a_i])) * f(r, best_k);
      }
      gram_full(a_i, s - 1) = to_new;
      // The Gram is Hermitian, and conj-of-sum equals sum-of-conj exactly
      // in IEEE arithmetic, so the mirror entry needs no second pass.
      gram_full(s - 1, a_i) = std::conj(to_new);
    }
    std::complex<double> rhs_new{0.0, 0.0};
    for (std::size_t r = 0; r < n; ++r) {
      rhs_new += std::conj(f(r, best_k)) * h[r];
    }
    rhs_full[s - 1] = rhs_new;

    // Least squares on the active set via normal equations G a = c.
    mathx::ComplexMatrix gram(s, s);
    std::vector<std::complex<double>> rhs(s);
    for (std::size_t a_i = 0; a_i < s; ++a_i) {
      for (std::size_t b_i = 0; b_i < s; ++b_i) {
        gram(a_i, b_i) = gram_full(a_i, b_i);
      }
      rhs[a_i] = rhs_full[a_i];
    }
    amplitudes = mathx::solve_linear(std::move(gram), std::move(rhs));

    // Update residual r = h - Fs a.
    residual.assign(h.begin(), h.end());
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t a_i = 0; a_i < s; ++a_i) {
        residual[r] -= f(r, support[a_i]) * amplitudes[a_i];
      }
    }
    out.iterations = static_cast<int>(it + 1);
  }

  for (std::size_t a_i = 0; a_i < support.size(); ++a_i) {
    out.coefficients[support[a_i]] = amplitudes[a_i];
  }
  out.converged = true;
  out.residual_norm = mathx::norm2(residual);
  return out;
}

}  // namespace chronos::core
