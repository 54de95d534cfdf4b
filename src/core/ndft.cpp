#include "core/ndft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"
#include "mathx/cvec.hpp"
#include "mathx/matrix.hpp"

namespace chronos::core {

namespace {

/// Scratch for every solver entry point. Thread-local so the batched
/// runtime's workers never contend or share buffers.
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

}  // namespace

NdftSolver::NdftSolver(std::vector<double> row_freqs_hz, DelayGrid grid,
                       std::vector<double> row_weights)
    : plan_(std::make_shared<const NdftPlan>(
          std::move(row_freqs_hz), grid, std::move(row_weights))) {}

namespace {

double effective_alpha(const NdftPlan& plan, const NdftWorkspace& ws,
                       const IstaOptions& opts) {
  CHRONOS_EXPECTS(opts.alpha > 0.0, "alpha must be positive");
  // Scale-free knob: alpha relative to the strongest matched-filter
  // response max|F^H h| (the largest gradient magnitude at p = 0), which
  // the caller has computed into ws.grad.
  // Argmax over squared magnitudes (|.| is monotone in |.|^2), then a single
  // exact std::abs at the winner — same peak value as the legacy per-element
  // std::abs pass without thousands of hypot calls.
  double peak_sq = 0.0;
  std::size_t peak_k = 0;
  for (std::size_t k = 0; k < plan.cols(); ++k) {
    const double msq =
        ws.grad_re[k] * ws.grad_re[k] + ws.grad_im[k] * ws.grad_im[k];
    if (msq > peak_sq) {
      peak_sq = msq;
      peak_k = k;
    }
  }
  const double peak =
      std::abs(std::complex<double>{ws.grad_re[peak_k], ws.grad_im[peak_k]});
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
  CHRONOS_EXPECTS(p.size() == plan_->cols(), "profile/column count mismatch");
  std::vector<double> p_re(p.size()), p_im(p.size());
  split_into(p, p_re, p_im);
  std::vector<std::uint32_t> cols(p.size());
  std::iota(cols.begin(), cols.end(), 0u);
  std::vector<double> out_re(plan_->rows()), out_im(plan_->rows());
  plan_->forward_active(p_re.data(), p_im.data(), cols, out_re.data(),
                        out_im.data());
  return merge_planes(out_re, out_im);
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

/// How often the loop certifies its iterate. A check costs one full
/// adjoint, about one gradient; F p comes from the loop.
/// Measured by time-to-gap on the 48 bench_micro_core office solves
/// (Release, 4-vCPU x86-64 guest with AVX2, best of 30 passes, median of
/// 10 alternating rounds) under the backtracking step below: a check every
/// 5 iterations read 1.05 ms (74.9 iterations on average), every 10
/// 1.05 ms (88.8), every 20 1.22 ms (117.5). Sparser checks overshoot the
/// gap target by more iterations, and each check also grows the step.
constexpr int kGapCheckEvery = 10;

/// The backtracking step s starts each solve at kInitialStepScale * gamma
/// and grows by kStepGrowth at every gap check that does not stop; the
/// descent test halves it wherever it is too long. gamma = 1/||F||^2 fits
/// all columns, while between checks the loop moves only on the working
/// set, whose ||F_W||^2 averaged 0.34 ||F||^2 on the office solves. Chosen
/// by time-to-gap on those solves and host (median of 8 alternating
/// rounds): (scale, growth) pairs from (2, 3, 4, 8) x (1.5, 2) read
/// 0.98-1.25 ms against 1.57 ms for the fixed step gamma, with (2, 2) and
/// (4, 2) fastest. A growth of 1.5 takes 98-101 iterations on average;
/// with a growth of 2, starts of 2, 4 and 8 gamma all take 88.8, since the
/// first step is halved to at most 2 gamma on every office solve, and
/// differ only by one halving per doubling of the start.
constexpr double kInitialStepScale = 4.0;
constexpr double kStepGrowth = 2.0;

/// The descent test accepts f(q) up to this fraction of f(y) above its
/// quadratic bound, so that rounding alone never rejects a step.
constexpr double kDescentSlack = 1e-12;

/// Each check admits to the working set every column whose scaled dual
/// correlation s * |F^H r| reaches this fraction of alpha; a column needs
/// |grad| > alpha to leave zero, so the margin admits the columns that may
/// enter before the next check. Under the fixed step gamma, 0.9 moved 11
/// of the 48 office solves by at most 1.3e-3 relative against a full-grid
/// iteration to the same gap, and 0.95 moved 30 solves by up to 3.9e-2.
/// Time-to-gap under the backtracking step (same solves, host and rounds
/// as kGapCheckEvery): 0.8 keeps 297 columns per iteration (1.15 ms); 0.9
/// keeps 225 (1.05 ms); 0.95 keeps 195 (0.91 ms, faster in 8 of 10
/// rounds), whose cost in accuracy was not measured again.
constexpr double kWorkingSetFraction = 0.9;

/// True when any bit of (re, im) is set: -0.0 counts.
bool any_bit(double re, double im) {
  return (std::bit_cast<std::uint64_t>(re) |
          std::bit_cast<std::uint64_t>(im)) != 0;
}

/// The duality-gap certificate of the iterate p (ws.p, nonzero columns
/// ws.support, F p in ws.fit) for min 1/2 ||h - F p||^2 + alpha ||p||_1.
/// Writes the relative gap and ||h - F p|| to `out`, and rebuilds the
/// working set ws.work = supp(p) ∪ supp(y) ∪ {c : s |c_c| >=
/// kWorkingSetFraction alpha}. Overwrites ws.fp (with r) and ws.grad (with
/// c); the next gradient rewrites ws.grad on the new working set before
/// anything reads it.
void certify(const NdftPlan& plan, NdftWorkspace& ws, double alpha,
             double h_sq, SparseSolveResult& out) {
  const std::size_t n = plan.rows();
  const std::size_t m = plan.cols();
  // r = h - F p, with F p read from ws.fit: the loop took that product
  // over supp(p) when it accepted p as its candidate.
  double r_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double rr = ws.h_re[i] - ws.fit_re[i];
    const double ri = ws.h_im[i] - ws.fit_im[i];
    ws.fp_re[i] = rr;
    ws.fp_im[i] = ri;
    r_sq += rr * rr + ri * ri;
  }
  // c = F^H r over every column: the dual point must be feasible on the
  // whole grid, not only on the working set.
  plan.adjoint(ws.fp_re.data(), ws.fp_im.data(), ws.grad_re.data(),
               ws.grad_im.data());
  const double* c_re = ws.grad_re.data();
  const double* c_im = ws.grad_im.data();
  double c_max_sq = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    c_max_sq = std::max(c_max_sq, c_re[k] * c_re[k] + c_im[k] * c_im[k]);
  }
  const double c_max = std::sqrt(c_max_sq);
  // theta = s r with s = min(1, alpha / max|c|) satisfies |F^H theta| <=
  // alpha on every column (any s when F^H r = 0).
  const double s = c_max > alpha ? alpha / c_max : 1.0;
  double l1 = 0.0;
  for (const std::uint32_t k : ws.support) {
    l1 += std::sqrt(ws.p_re[k] * ws.p_re[k] + ws.p_im[k] * ws.p_im[k]);
  }
  double d_sq = 0.0;  // ||h - theta||^2
  for (std::size_t i = 0; i < n; ++i) {
    const double dr = ws.h_re[i] - s * ws.fp_re[i];
    const double di = ws.h_im[i] - s * ws.fp_im[i];
    d_sq += dr * dr + di * di;
  }
  const double primal = 0.5 * r_sq + alpha * l1;
  const double dual = 0.5 * h_sq - 0.5 * d_sq;
  out.relative_gap = primal > 0.0 ? (primal - dual) / primal : 0.0;
  out.residual_norm = std::sqrt(r_sq);

  // s |c_k| >= f alpha  <=>  |c_k| >= f max(alpha, max|c|): one squared
  // threshold, merged with the ascending supports into runs.
  const double w_thr = kWorkingSetFraction * std::max(alpha, c_max);
  const double w_thr_sq = w_thr * w_thr;
  const std::span<const std::uint32_t> p_cols = ws.support;
  const std::span<const std::uint32_t> y_cols = ws.active;
  std::size_t i = 0;
  std::size_t j = 0;
  ws.work.clear();
  for (std::size_t k = 0; k < m; ++k) {
    const bool in_p = i < p_cols.size() && p_cols[i] == k;
    const bool in_y = j < y_cols.size() && y_cols[j] == k;
    i += static_cast<std::size_t>(in_p);
    j += static_cast<std::size_t>(in_y);
    const bool in_w =
        in_p || in_y || c_re[k] * c_re[k] + c_im[k] * c_im[k] >= w_thr_sq;
    if (!in_w) continue;
    const auto col = static_cast<std::uint32_t>(k);
    if (!ws.work.empty() && ws.work.back().hi == col) {
      ws.work.back().hi = col + 1;
    } else {
      // lint:allow(no-alloc): ws.work is reserved at bind() to the most
      // disjoint runs cols columns can hold
      ws.work.push_back({col, col + 1});
    }
  }
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

  ws.bind(n, m);  // also sets the working set to every column
  split_into(h, ws.h_re, ws.h_im);
  // F^H h: the scale of the relative alpha and, negated, the gradient
  // F^H (F y - h) of the first iteration, where y = 0. The negation is
  // exact, so it has the bits of F^H (-h) but for the sign of exact
  // zeros, which the first proximal step cannot see.
  plan.adjoint(ws.h_re.data(), ws.h_im.data(), ws.grad_re.data(),
               ws.grad_im.data());
  const double alpha = effective_alpha(plan, ws, opts);
  for (std::size_t k = 0; k < m; ++k) {
    ws.grad_re[k] = -ws.grad_re[k];
    ws.grad_im[k] = -ws.grad_im[k];
  }
  double h_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    h_sq += ws.h_re[i] * ws.h_re[i] + ws.h_im[i] * ws.h_im[i];
  }
  // Zero on a degenerate (all-zero-weight) plan: every step is then null
  // and passes the descent test at once.
  double step = kInitialStepScale * plan.gamma();

  SparseSolveResult out;
  out.grid = plan.grid();
  std::fill(ws.p_re.begin(), ws.p_re.end(), 0.0);
  std::fill(ws.p_im.begin(), ws.p_im.end(), 0.0);
  std::fill(ws.y_re.begin(), ws.y_re.end(), 0.0);
  std::fill(ws.y_im.begin(), ws.y_im.end(), 0.0);
  std::fill(ws.fit_re.begin(), ws.fit_re.end(), 0.0);
  std::fill(ws.fit_im.begin(), ws.fit_im.end(), 0.0);
  std::fill(ws.fy_re.begin(), ws.fy_re.end(), 0.0);
  std::fill(ws.fy_im.begin(), ws.fy_im.end(), 0.0);
  ws.active.clear();   // the extrapolated point y's nonzeros
  ws.support.clear();  // the iterate p's columns with any bit set
  double t_momentum = 1.0;

  // Everything inside this loop works on workspace buffers: no allocation
  // per iteration (tests/test_core_ndft_kernels.cpp counts at runtime;
  // scripts/lint/check_noalloc.py bans allocating constructs in this
  // region at lint time). The gradient is taken at the extrapolated point
  // y, whose nonzero columns ws.active tracks; ISTA holds the momentum
  // coefficient beta at 0, so its y is the iterate p itself.
  //
  // Between gap checks the gradient and the proximal step visit only the
  // working set W, which every check rebuilds from the full dual and which
  // holds the supports of p and y; until the first check W is every
  // column. Starting W from F^H h instead moved every office solve (by up
  // to 21% in the coefficients): the first iterations need the whole grid.
  // Outside W, p and y stay +0.0.
  //
  // The step s is Beck and Teboulle's backtracking: a candidate q =
  // prox(y - s grad f(y)) is accepted only if f(q) <= f(y) + Re<grad f(y),
  // q - y> + ||q - y||^2 / (2 s) (f = 1/2 ||h - F .||^2; q and y differ
  // only on W), else s halves and the step is redone from the same
  // gradient. Each try costs one forward product over supp(q); F y comes
  // from the last two accepted ones. The test's comparison is written so
  // that NaN accepts, and s reaches 0 after about a thousand halvings, when
  // q = y: the try loop always ends.
  // lint:region(no-alloc)
  for (int t = 0; t < opts.max_iterations; ++t) {
    // The residual F y - h (the gradient's input) and f(y).
    double f_y = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double rr = ws.fy_re[i] - ws.h_re[i];
      const double ri = ws.fy_im[i] - ws.h_im[i];
      ws.fp_re[i] = rr;
      ws.fp_im[i] = ri;
      f_y += rr * rr + ri * ri;
    }
    f_y *= 0.5;
    if (t > 0) plan.gradient_from_residual(ws);  // t = 0: -F^H h above

    for (;;) {
      const double thr = step * alpha;
      const double thr_sq = thr * thr;
      double slope = 0.0;  // Re<grad f(y), q - y>
      double d_sq = 0.0;   // ||q - y||^2
      ws.support.clear();
      for (const ColumnRun run : ws.work) {
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const double pr = ws.y_re[k] - step * ws.grad_re[k];
          const double pi = ws.y_im[k] - step * ws.grad_im[k];
          double nr = 0.0;
          double ni = 0.0;
          const double msq = pr * pr + pi * pi;
          if (msq > thr_sq) {
            const double mag = std::sqrt(msq);
            const double scale = (mag - thr) / mag;
            nr = pr * scale;
            ni = pi * scale;
          }
          ws.q_re[k] = nr;
          ws.q_im[k] = ni;
          const double dr = nr - ws.y_re[k];
          const double di = ni - ws.y_im[k];
          slope += ws.grad_re[k] * dr + ws.grad_im[k] * di;
          d_sq += dr * dr + di * di;
          if (any_bit(nr, ni)) {
            // lint:allow(no-alloc): ws.support is reserved to cols at bind()
            ws.support.push_back(k);
          }
        }
      }
      plan.forward_active(ws.q_re.data(), ws.q_im.data(), ws.support,
                          ws.fq_re.data(), ws.fq_im.data());
      double f_q = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double rr = ws.fq_re[i] - ws.h_re[i];
        const double ri = ws.fq_im[i] - ws.h_im[i];
        f_q += rr * rr + ri * ri;
      }
      f_q *= 0.5;
      if (!(f_q > f_y + slope + d_sq / (2.0 * step) + kDescentSlack * f_y)) {
        break;
      }
      step *= 0.5;
      ++out.step_halvings;
    }

    // Accept q: p <- q and y <- q + beta (q - p), rebuilding y's support
    // (ws.support already holds q's), and F y, F p to match.
    const double t_next =
        (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum)) / 2.0;
    const double beta = accelerate ? (t_momentum - 1.0) / t_next : 0.0;
    ws.active.clear();
    for (const ColumnRun run : ws.work) {
      for (std::uint32_t k = run.lo; k < run.hi; ++k) {
        const double nr = ws.q_re[k];
        const double ni = ws.q_im[k];
        const double move_re = nr - ws.p_re[k];
        const double move_im = ni - ws.p_im[k];
        ws.p_re[k] = nr;
        ws.p_im[k] = ni;
        const double yr = nr + beta * move_re;
        const double yi = ni + beta * move_im;
        ws.y_re[k] = yr;
        ws.y_im[k] = yi;
        if (yr != 0.0 || yi != 0.0) {
          // lint:allow(no-alloc): ws.active is reserved to cols at bind()
          ws.active.push_back(k);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      ws.fy_re[i] = (1.0 + beta) * ws.fq_re[i] - beta * ws.fit_re[i];
      ws.fy_im[i] = (1.0 + beta) * ws.fq_im[i] - beta * ws.fit_im[i];
      ws.fit_re[i] = ws.fq_re[i];
      ws.fit_im[i] = ws.fq_im[i];
    }
    t_momentum = t_next;

    out.iterations = t + 1;
    // The last iteration is always certified, so relative_gap describes
    // the returned p however the loop ends.
    if (out.iterations % kGapCheckEvery == 0 ||
        out.iterations == opts.max_iterations) {
      certify(plan, ws, alpha, h_sq, out);
      if (out.relative_gap <= opts.gap_tolerance) break;
      step *= kStepGrowth;
    }
  }
  // lint:endregion(no-alloc)

  if (out.iterations == 0) certify(plan, ws, alpha, h_sq, out);
  out.converged = out.relative_gap <= opts.gap_tolerance;
  out.coefficients = merge_planes(ws.p_re, ws.p_im);
  return out;
}

}  // namespace

SparseSolveResult NdftSolver::solve_ista(
    std::span<const std::complex<double>> h, const IstaOptions& opts) const {
  return solve_proximal(*plan_, h, opts, tls_workspace(),
                        /*accelerate=*/false);
}

SparseSolveResult NdftSolver::solve_fista(
    std::span<const std::complex<double>> h, const IstaOptions& opts) const {
  return solve_proximal(*plan_, h, opts, tls_workspace(),
                        /*accelerate=*/true);
}

std::vector<SparseSolveResult> NdftSolver::solve_fista_batch(
    std::span<const std::span<const std::complex<double>>> hs,
    const IstaOptions& opts) const {
  std::vector<SparseSolveResult> out;
  out.reserve(hs.size());
  for (const auto& h : hs) out.push_back(solve_fista(h, opts));
  return out;
}

SparseSolveResult NdftSolver::solve_omp(
    std::span<const std::complex<double>> h, std::size_t max_paths) const {
  const NdftPlan& plan = *plan_;
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
        to_new += std::conj(plan.at(r, support[a_i])) * plan.at(r, best_k);
      }
      gram_full(a_i, s - 1) = to_new;
      // The Gram is Hermitian, and conj-of-sum equals sum-of-conj exactly
      // in IEEE arithmetic, so the mirror entry needs no second pass.
      gram_full(s - 1, a_i) = std::conj(to_new);
    }
    std::complex<double> rhs_new{0.0, 0.0};
    for (std::size_t r = 0; r < n; ++r) {
      rhs_new += std::conj(plan.at(r, best_k)) * h[r];
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
        residual[r] -= plan.at(r, support[a_i]) * amplitudes[a_i];
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
