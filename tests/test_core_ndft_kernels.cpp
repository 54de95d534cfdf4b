// Pins the structure-exploiting kernel layer (core/ndft_kernels) to the
// dense mathx::Matrix path on F's entries (NdftPlan::at):
//  * active-set forward / adjoint / gradient kernels match the complex
//    matvec (asserted to <= 1e-12 relative, measured ~0);
//  * the recurrence matched-filter scan matches per-point std::polar
//    evaluation to <= 1e-12 relative over bench-length scans;
//  * ISTA and FISTA reproduce a reference implementation of the
//    gap-certified, working-set loop with its backtracking step written
//    against the dense matrix bit for bit: identical iteration counts,
//    step halvings and convergence, bitwise-equal coefficients, residual
//    norms and duality gaps, on the test grid and on the production
//    0-150 ns / 0.125 ns grid, and FISTA also on office channels at the
//    production options; OMP matches a reference of the legacy greedy
//    loop;
//  * the backtracking step certifies one-, two- and three-path channels,
//    an office channel and degenerate inputs, in far fewer iterations than
//    the fixed step took, and degenerate plans and channels solve without
//    asserting;
//  * every solver entry point reports a duality gap that an independent
//    dense recomputation agrees with to 1e-9, and converges exactly when
//    that gap is within the tolerance;
//  * the forward product equals the complex matvec bit for bit at every
//    row count (1 to more than 64 rows, padded or not) and column list;
//  * the run-restricted adjoint and gradient equal the full ones bit for
//    bit on every run column, also when the gradient's packed working set
//    must follow a working set that changed;
//  * the solver iteration loops allocate nothing per iteration, step
//    halvings included (counting global operator new);
//  * two builds of one plan key hold the same bits, two solvers of one
//    key can take turns on one thread's workspace with bitwise-equal
//    solves, and the gradient's packed working set follows a change of
//    plan;
//  * DelayGrid::size() is robust at exact step multiples and refuses
//    unbounded grids.
// The references here carry no per-function target (x86-64 baseline in
// the default build), so on an AVX2 host the bitwise checks compare the
// AVX2 kernel variants (NdftPlan::kernel_variant) against baseline
// arithmetic. Such a host never runs the
// baseline variant; only a CPU without AVX2 or a non-x86 build does.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/combining.hpp"
#include "core/ndft.hpp"
#include "core/ndft_kernels.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "mathx/constants.hpp"
#include "mathx/cvec.hpp"
#include "mathx/matrix.hpp"
#include "mathx/rng.hpp"
#include "phy/band_plan.hpp"
#include "sim/radio.hpp"
#include "sim/scenario.hpp"

// ---- Allocation counter -------------------------------------------------
// Global operator new/delete replacement counting every heap allocation in
// the test binary. The allocation-free test compares counts across solves
// with different iteration budgets; everything else ignores the counter.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// The replacement operators pair malloc with free consistently; GCC's
// -Wmismatched-new-delete cannot see that the matching operator new also
// forwards to malloc, so silence its false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace chronos::core {
namespace {

using mathx::kTwoPi;

std::vector<double> plan_frequencies() {
  std::vector<double> f;
  for (const auto& b : phy::us_band_plan()) f.push_back(b.center_freq_hz);
  return f;
}

std::vector<std::complex<double>> random_channel(mathx::Rng& rng,
                                                 const std::vector<double>& freqs) {
  // A few random paths plus light noise: the workload class the solver sees.
  const int paths = rng.uniform_int(1, 4);
  std::vector<std::pair<double, double>> taus;
  for (int p = 0; p < paths; ++p) {
    taus.emplace_back(rng.uniform(2e-9, 35e-9), rng.uniform(0.2, 1.0));
  }
  std::vector<std::complex<double>> h(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    std::complex<double> acc = rng.complex_gaussian(0.02);
    for (const auto& [tau, amp] : taus) {
      acc += amp * std::polar(1.0, -kTwoPi * freqs[i] * tau);
    }
    h[i] = acc;
  }
  return h;
}

std::vector<double> random_weights(mathx::Rng& rng, std::size_t n) {
  std::vector<double> w(n);
  for (auto& v : w) v = rng.uniform(0.2, 2.0);
  return w;
}

/// Weighted office channels prepared the way bench_micro_core's
/// fista_solve_office prepares them: sim::office_testbed links 1-15 m
/// apart, single-antenna mobiles, each captured once through an Engine
/// calibrated with Engine::calibrate, then combined and weighted as the
/// ranging pipeline does. `solver` is the pipeline's.
struct OfficeChannels {
  NdftSolver solver;
  std::vector<std::vector<std::complex<double>>> hs;
};

OfficeChannels office_channels(std::size_t links) {
  constexpr std::uint64_t kTxPersonality = 11;
  constexpr std::uint64_t kRxPersonality = 22;
  const NodeId cal_tx{1};
  const NodeId cal_rx{2};
  const sim::Scenario scenario = sim::office_testbed();
  auto source = std::make_shared<SimSweepSource>(scenario.environment(),
                                                 sim::LinkSimConfig{});
  source->add_node(cal_tx, sim::make_mobile({0.0, 0.0}, kTxPersonality));
  source->add_node(cal_rx, sim::make_mobile({1.0, 0.0}, kRxPersonality));
  mathx::Rng rng(20);
  std::vector<RangingRequest> requests;
  for (std::uint64_t i = 0; i < links; ++i) {
    const sim::Placement pl = scenario.sample_pair(rng, 1.0, 15.0);
    const NodeId tx{100 + i};
    const NodeId rx{200 + i};
    source->add_node(tx, sim::make_mobile(pl.tx, kTxPersonality));
    source->add_node(rx, sim::make_mobile(pl.rx, kRxPersonality));
    requests.push_back({{tx, 0}, {rx, 0}});
  }
  Engine engine = Engine::adopt(source);
  EXPECT_TRUE(engine.calibrate(cal_tx, cal_rx, rng).ok());
  const RangingPipeline pipeline(source->bands(), EngineOptions{}.ranging);
  OfficeChannels out{pipeline.solver(), {}};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    mathx::Rng link_rng = rng.split(i);
    const auto sweep = engine.capture_sweep(requests[i], link_rng);
    EXPECT_TRUE(sweep.ok());
    if (!sweep.ok()) continue;
    std::vector<std::complex<double>> raw;
    for (const auto& band : combine_sweep(sweep.value(),
                                          pipeline.config().combining,
                                          engine.calibration())) {
      raw.push_back(band.value);
    }
    out.hs.push_back(pipeline.solver().apply_weights(raw));
  }
  return out;
}

// ---- Reference implementations (the pre-kernel dense path) --------------

/// F as a dense complex matrix, entry by entry from NdftPlan::at: the
/// complex matvecs on it are the reference the kernels are held to.
mathx::ComplexMatrix dense(const NdftPlan& plan) {
  mathx::ComplexMatrix f(plan.rows(), plan.cols());
  for (std::size_t r = 0; r < plan.rows(); ++r) {
    for (std::size_t c = 0; c < plan.cols(); ++c) f(r, c) = plan.at(r, c);
  }
  return f;
}

double reference_alpha(const mathx::ComplexMatrix& f,
                       std::span<const std::complex<double>> h,
                       const IstaOptions& opts) {
  const auto mf = f.multiply_adjoint(h);
  double peak = 0.0;
  for (const auto& v : mf) peak = std::max(peak, std::abs(v));
  return opts.alpha * peak;
}

/// One gap check of the stop rule against the dense matrix, in the
/// solver's arithmetic order: the relative duality gap of p, ||h - F p||,
/// and the working set the check admits, supp(p) ∪ supp(y) ∪ {k : |c_k| >=
/// 0.9 max(alpha, max|c|)} with c = F^H (h - F p).
struct ReferenceCheck {
  double relative_gap = 0.0;
  double residual_norm = 0.0;
  std::vector<char> in_work;
};

ReferenceCheck reference_check(const mathx::ComplexMatrix& f,
                               std::span<const std::complex<double>> h,
                               std::span<const std::complex<double>> p,
                               std::span<const std::complex<double>> y,
                               double alpha) {
  auto r = f.multiply(p);
  double r_sq = 0.0;
  double h_sq = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = h[i] - r[i];
    r_sq += std::norm(r[i]);
    h_sq += std::norm(h[i]);
  }
  const auto c = f.multiply_adjoint(r);
  double c_max_sq = 0.0;
  for (const auto& v : c) c_max_sq = std::max(c_max_sq, std::norm(v));
  const double c_max = std::sqrt(c_max_sq);
  const double s = c_max > alpha ? alpha / c_max : 1.0;
  double l1 = 0.0;
  for (const auto& v : p) l1 += std::sqrt(std::norm(v));
  double d_sq = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) d_sq += std::norm(h[i] - s * r[i]);
  const double primal = 0.5 * r_sq + alpha * l1;
  const double dual = 0.5 * h_sq - 0.5 * d_sq;

  ReferenceCheck out;
  out.relative_gap = primal > 0.0 ? (primal - dual) / primal : 0.0;
  out.residual_norm = std::sqrt(r_sq);
  const double w_thr = 0.9 * std::max(alpha, c_max);
  out.in_work.resize(p.size());
  for (std::size_t k = 0; k < p.size(); ++k) {
    const bool p_bits = std::bit_cast<std::uint64_t>(p[k].real()) != 0 ||
                        std::bit_cast<std::uint64_t>(p[k].imag()) != 0;
    out.in_work[k] = p_bits || y[k] != std::complex<double>{} ||
                     std::norm(c[k]) >= w_thr * w_thr;
  }
  return out;
}

/// The paper's SPARSIFY on one coefficient: complex soft-thresholding that
/// shrinks its magnitude by `threshold`, or zeroes it when the magnitude is
/// at most `threshold`.
std::complex<double> soft_threshold(std::complex<double> v, double threshold) {
  const double msq = std::norm(v);
  if (msq <= threshold * threshold) return {0.0, 0.0};
  const double mag = std::sqrt(msq);
  return v * ((mag - threshold) / mag);
}

/// 1/2 ||v - h||^2 for a row vector v = F x.
double reference_data_term(std::span<const std::complex<double>> v,
                           std::span<const std::complex<double>> h) {
  double sum = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) sum += std::norm(v[i] - h[i]);
  return 0.5 * sum;
}

/// ISTA (accelerate = false) or FISTA against the dense matrix: a full
/// dense gradient at y every iteration from the residual F y - h, with
/// F y = (1 + beta) F q - beta F p combined from the last two accepted
/// candidates; the proximal step applied on the working set only, with a
/// backtracking step s that starts at 4 gamma, halves until f(q) <= f(y)
/// + Re<grad, q - y> + ||q - y||^2 / (2 s) + 1e-12 f(y), and doubles at
/// every gap check that does not stop; a gap check every 10 iterations
/// and at the last.
SparseSolveResult reference_solve(const NdftSolver& solver,
                                  std::span<const std::complex<double>> h,
                                  const IstaOptions& opts, bool accelerate) {
  const auto f = dense(solver.plan());
  const double alpha = reference_alpha(f, h, opts);
  const std::size_t n = f.rows();
  const std::size_t m = f.cols();
  double step = 4.0 * solver.plan().gamma();

  SparseSolveResult out;
  out.grid = solver.grid();
  std::vector<std::complex<double>> p(m, {0.0, 0.0});
  std::vector<std::complex<double>> y = p;
  std::vector<std::complex<double>> fy(n, {0.0, 0.0});  // F y
  std::vector<std::complex<double>> fp(n, {0.0, 0.0});  // F p
  std::vector<char> in_work(m, 1);  // every column until the first check
  ReferenceCheck check;
  double t_momentum = 1.0;
  for (int t = 0; t < opts.max_iterations; ++t) {
    std::vector<std::complex<double>> residual(n);
    for (std::size_t i = 0; i < n; ++i) residual[i] = fy[i] - h[i];
    const double f_y = reference_data_term(fy, h);
    const auto grad = f.multiply_adjoint(residual);

    std::vector<std::complex<double>> q(m, {0.0, 0.0});
    std::vector<std::complex<double>> fq;
    for (;;) {
      double slope = 0.0;
      double d_sq = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        if (!in_work[k]) continue;
        q[k] = soft_threshold(y[k] - step * grad[k], step * alpha);
        const std::complex<double> d = q[k] - y[k];
        slope += grad[k].real() * d.real() + grad[k].imag() * d.imag();
        d_sq += std::norm(d);
      }
      fq = f.multiply(q);
      const double f_q = reference_data_term(fq, h);
      if (!(f_q > f_y + slope + d_sq / (2.0 * step) + 1e-12 * f_y)) break;
      step *= 0.5;
      ++out.step_halvings;
    }

    const double t_next =
        (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum)) / 2.0;
    const double beta = accelerate ? (t_momentum - 1.0) / t_next : 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      if (!in_work[k]) continue;
      const std::complex<double> moved = q[k] - p[k];
      p[k] = q[k];
      y[k] = q[k] + beta * moved;
    }
    for (std::size_t i = 0; i < n; ++i) {
      fy[i] = (1.0 + beta) * fq[i] - beta * fp[i];
    }
    fp = fq;
    t_momentum = t_next;
    out.iterations = t + 1;
    if (out.iterations % 10 == 0 || out.iterations == opts.max_iterations) {
      check = reference_check(f, h, p, y, alpha);
      in_work = check.in_work;
      if (check.relative_gap <= opts.gap_tolerance) break;
      step *= 2.0;
    }
  }
  if (out.iterations == 0) check = reference_check(f, h, p, y, alpha);
  out.relative_gap = check.relative_gap;
  out.converged = check.relative_gap <= opts.gap_tolerance;
  out.residual_norm = check.residual_norm;
  out.coefficients = std::move(p);
  return out;
}

SparseSolveResult reference_ista(const NdftSolver& solver,
                                 std::span<const std::complex<double>> h,
                                 const IstaOptions& opts) {
  return reference_solve(solver, h, opts, /*accelerate=*/false);
}

SparseSolveResult reference_fista(const NdftSolver& solver,
                                  std::span<const std::complex<double>> h,
                                  const IstaOptions& opts) {
  return reference_solve(solver, h, opts, /*accelerate=*/true);
}

/// The legacy greedy OMP loop (full Gram rebuild, std::find membership).
SparseSolveResult reference_omp(const NdftSolver& solver,
                                std::span<const std::complex<double>> h,
                                std::size_t max_paths) {
  const auto f = dense(solver.plan());
  SparseSolveResult out;
  out.grid = solver.grid();
  out.coefficients.assign(f.cols(), {0.0, 0.0});
  std::vector<std::size_t> support;
  std::vector<std::complex<double>> residual(h.begin(), h.end());
  std::vector<std::complex<double>> amplitudes;
  for (std::size_t it = 0; it < max_paths; ++it) {
    const auto corr = f.multiply_adjoint(residual);
    std::size_t best_k = 0;
    double best_mag = -1.0;
    for (std::size_t k = 0; k < corr.size(); ++k) {
      const double mag = std::abs(corr[k]);
      if (mag > best_mag &&
          std::find(support.begin(), support.end(), k) == support.end()) {
        best_mag = mag;
        best_k = k;
      }
    }
    if (best_mag <= 1e-12) break;
    support.push_back(best_k);

    const std::size_t s = support.size();
    mathx::ComplexMatrix gram(s, s);
    std::vector<std::complex<double>> rhs(s);
    for (std::size_t a_i = 0; a_i < s; ++a_i) {
      for (std::size_t b_i = 0; b_i < s; ++b_i) {
        std::complex<double> acc{0.0, 0.0};
        for (std::size_t r = 0; r < f.rows(); ++r) {
          acc += std::conj(f(r, support[a_i])) * f(r, support[b_i]);
        }
        gram(a_i, b_i) = acc;
      }
      std::complex<double> acc{0.0, 0.0};
      for (std::size_t r = 0; r < f.rows(); ++r) {
        acc += std::conj(f(r, support[a_i])) * h[r];
      }
      rhs[a_i] = acc;
    }
    // Normal equations via the same pivoted elimination the solver uses —
    // reimplemented against the dense matrix only.
    mathx::ComplexMatrix a = gram;
    std::vector<std::complex<double>> b = rhs;
    const std::size_t ns = a.rows();
    for (std::size_t k = 0; k < ns; ++k) {
      std::size_t pivot = k;
      double best = std::abs(a(k, k));
      for (std::size_t i = k + 1; i < ns; ++i) {
        if (std::abs(a(i, k)) > best) {
          best = std::abs(a(i, k));
          pivot = i;
        }
      }
      if (pivot != k) {
        for (std::size_t j = 0; j < ns; ++j) std::swap(a(k, j), a(pivot, j));
        std::swap(b[k], b[pivot]);
      }
      for (std::size_t i = k + 1; i < ns; ++i) {
        const std::complex<double> factor = a(i, k) / a(k, k);
        if (factor == std::complex<double>{}) continue;
        for (std::size_t j = k; j < ns; ++j) a(i, j) -= factor * a(k, j);
        b[i] -= factor * b[k];
      }
    }
    amplitudes.assign(ns, {0.0, 0.0});
    for (std::size_t k = ns; k-- > 0;) {
      std::complex<double> acc = b[k];
      for (std::size_t j = k + 1; j < ns; ++j) acc -= a(k, j) * amplitudes[j];
      amplitudes[k] = acc / a(k, k);
    }

    residual.assign(h.begin(), h.end());
    for (std::size_t r = 0; r < f.rows(); ++r) {
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

double max_rel_err(std::span<const std::complex<double>> got,
                   std::span<const std::complex<double>> want) {
  EXPECT_EQ(got.size(), want.size());
  double scale = 0.0;
  for (const auto& v : want) scale = std::max(scale, std::abs(v));
  scale = std::max(scale, 1e-30);
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst, std::abs(got[i] - want[i]) / scale);
  }
  return worst;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::span<const std::complex<double>> a,
               std::span<const std::complex<double>> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].real(), b[i].real()) ||
        !same_bits(a[i].imag(), b[i].imag())) {
      return false;
    }
  }
  return true;
}

/// Same iterations, step halvings, convergence, coefficient bits, residual
/// bits and gap bits.
void expect_same_solve(const SparseSolveResult& got,
                       const SparseSolveResult& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.step_halvings, want.step_halvings);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_TRUE(same_bits(got.coefficients, want.coefficients))
      << "coefficients differ (max rel err "
      << max_rel_err(got.coefficients, want.coefficients) << ")";
  EXPECT_TRUE(same_bits(got.residual_norm, want.residual_norm))
      << got.residual_norm << " vs " << want.residual_norm;
  EXPECT_TRUE(same_bits(got.relative_gap, want.relative_gap))
      << got.relative_gap << " vs " << want.relative_gap;
}

/// ws.fp = F y - h, the residual gradient_from_residual reads: the forward
/// product over y's nonzero columns ws.active, less the measurement ws.h.
void residual_at(const NdftPlan& plan, const double* y_re, const double* y_im,
                 NdftWorkspace& ws) {
  plan.forward_active(y_re, y_im, ws.active, ws.fp_re.data(),
                      ws.fp_im.data());
  for (std::size_t r = 0; r < plan.rows(); ++r) {
    ws.fp_re[r] -= ws.h_re[r];
    ws.fp_im[r] -= ws.h_im[r];
  }
}

// ---- DelayGrid boundary behaviour ---------------------------------------

TEST(DelayGridBoundary, ExactStepMultiplesIncludeTheEndpoint) {
  // 150e-9/0.125e-9 evaluates to 1199.99...98 in doubles: the pre-fix
  // truncation dropped the 150 ns end point.
  EXPECT_EQ((DelayGrid{0.0, 150e-9, 0.125e-9}).size(), 1201u);
  EXPECT_EQ((DelayGrid{0.0, 400e-9, 0.1e-9}).size(), 4001u);
  EXPECT_EQ((DelayGrid{0.0, 60e-9, 0.25e-9}).size(), 241u);
  EXPECT_EQ((DelayGrid{0.0, 50e-9, 0.5e-9}).size(), 101u);
  EXPECT_EQ((DelayGrid{0.0, 10e-9, 1e-9}).size(), 11u);
  EXPECT_EQ((DelayGrid{10e-9, 20e-9, 0.5e-9}).size(), 21u);
}

TEST(DelayGridBoundary, FractionalSpansStillTruncate) {
  EXPECT_EQ((DelayGrid{0.0, 10.5e-9, 1e-9}).size(), 11u);  // 0..10 ns
  EXPECT_EQ((DelayGrid{0.0, 9.99e-9, 1e-9}).size(), 10u);  // 0..9 ns
}

TEST(DelayGridBoundary, LastDelayMatchesMaxForExactMultiples) {
  const DelayGrid g{0.0, 150e-9, 0.125e-9};
  EXPECT_NEAR(g.delay_at(g.size() - 1), g.max_s, 1e-18);
}

TEST(DelayGridBoundary, RejectsUnboundedGrids) {
  // Unchecked, each of these reaches the cast of an out-of-range quotient
  // to std::size_t, which is undefined.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const DelayGrid unbounded[] = {
      {0.0, kInf, 1e-10},    {-kInf, 0.0, 1e-10}, {-kInf, kInf, 1e-10},
      {kNan, 1e-9, 1e-10},   {0.0, kNan, 1e-10},  {0.0, 1e-9, kNan},
      {0.0, 1e-9, 1e-300},   // 1e291 columns
      {-1e308, 1e308, 1.0},  // the span overflows to inf
  };
  for (const DelayGrid& g : unbounded) {
    EXPECT_THROW((void)g.size(), std::invalid_argument)
        << "[" << g.min_s << ", " << g.max_s << "] step " << g.step_s;
  }
  // A plan refuses such a grid before it allocates anything.
  EXPECT_THROW(NdftPlan(plan_frequencies(), {0.0, kInf, 1e-10}, {}),
               std::invalid_argument);

  // The cap: kMaxColumns columns pass, one more does not, and the widest
  // grid the repo builds sits below it.
  const auto cap = static_cast<double>(DelayGrid::kMaxColumns);
  EXPECT_EQ((DelayGrid{0.0, cap - 1.0, 1.0}).size(), DelayGrid::kMaxColumns);
  EXPECT_THROW((void)(DelayGrid{0.0, cap, 1.0}).size(),
               std::invalid_argument);
  EXPECT_LT((DelayGrid{0.0, 400e-9, 0.1e-9}).size(), DelayGrid::kMaxColumns);
}

// ---- Kernel equivalence --------------------------------------------------

TEST(NdftKernels, ForwardAdjointGradientMatchDensePath) {
  const auto freqs = plan_frequencies();
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    mathx::Rng rng(seed);
    const DelayGrid grid{0.0, rng.uniform(30e-9, 60e-9), 0.5e-9};
    const auto weights = random_weights(rng, freqs.size());
    NdftSolver solver(freqs, grid, weights);
    const NdftPlan& plan = solver.plan();
    const auto f = dense(plan);
    const std::size_t n = f.rows();
    const std::size_t m = f.cols();

    // Random dense p and x in split and complex form.
    std::vector<std::complex<double>> p(m), x(n);
    for (auto& v : p) v = rng.complex_gaussian(1.0);
    for (auto& v : x) v = rng.complex_gaussian(1.0);
    NdftWorkspace ws;
    ws.bind(n, m);
    for (std::size_t k = 0; k < m; ++k) {
      ws.p_re[k] = p[k].real();
      ws.p_im[k] = p[k].imag();
    }
    for (std::size_t i = 0; i < n; ++i) {
      ws.h_re[i] = x[i].real();
      ws.h_im[i] = x[i].imag();
    }

    // forward over every column (a dense p)
    std::vector<std::uint32_t> all_cols(m);
    std::iota(all_cols.begin(), all_cols.end(), 0u);
    plan.forward_active(ws.p_re.data(), ws.p_im.data(), all_cols,
                        ws.fp_re.data(), ws.fp_im.data());
    const auto fp_ref = f.multiply(p);
    std::vector<std::complex<double>> fp(n);
    for (std::size_t i = 0; i < n; ++i) fp[i] = {ws.fp_re[i], ws.fp_im[i]};
    EXPECT_LE(max_rel_err(fp, fp_ref), 1e-12);

    // adjoint
    plan.adjoint(ws.h_re.data(), ws.h_im.data(), ws.grad_re.data(),
                 ws.grad_im.data());
    const auto adj_ref = f.multiply_adjoint(x);
    std::vector<std::complex<double>> adj(m);
    for (std::size_t k = 0; k < m; ++k) adj[k] = {ws.grad_re[k], ws.grad_im[k]};
    EXPECT_LE(max_rel_err(adj, adj_ref), 1e-12);

    // gradient at a sparse p from its active-set residual
    std::vector<std::complex<double>> sparse_p(m, {0.0, 0.0});
    ws.active.clear();
    std::fill(ws.p_re.begin(), ws.p_re.end(), 0.0);
    std::fill(ws.p_im.begin(), ws.p_im.end(), 0.0);
    for (int j = 0; j < 7; ++j) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(m) - 1));
      if (sparse_p[k] != std::complex<double>{}) continue;
      sparse_p[k] = rng.complex_gaussian(1.0);
      ws.p_re[k] = sparse_p[k].real();
      ws.p_im[k] = sparse_p[k].imag();
    }
    for (std::size_t k = 0; k < m; ++k) {
      if (sparse_p[k] != std::complex<double>{}) {
        ws.active.push_back(static_cast<std::uint32_t>(k));
      }
    }
    residual_at(plan, ws.p_re.data(), ws.p_im.data(), ws);
    plan.gradient_from_residual(ws);
    auto res_ref = f.multiply(sparse_p);
    for (std::size_t i = 0; i < n; ++i) res_ref[i] -= x[i];
    const auto grad_ref = f.multiply_adjoint(res_ref);
    std::vector<std::complex<double>> grad(m);
    for (std::size_t k = 0; k < m; ++k) {
      grad[k] = {ws.grad_re[k], ws.grad_im[k]};
    }
    EXPECT_LE(max_rel_err(grad, grad_ref), 1e-12);
  }
}

TEST(NdftKernels, ForwardActiveMatchesMatvecBitwiseAtEveryRowCount) {
  // The forward product runs on column-major planes padded to four rows.
  // Row counts below, at and across that padding, and past 64 rows; column
  // lists from none to all. Columns off the list hold exact zeros, so the
  // complex matvec over every column is the bitwise reference.
  mathx::Rng rng(1414);
  const DelayGrid grid{0.0, 40e-9, 0.5e-9};  // 81 columns
  const double sentinel = 1234.5678;
  for (const std::size_t rows : {1u, 2u, 3u, 5u, 33u, 35u, 70u}) {
    std::vector<double> freqs(rows);
    for (double& f : freqs) f = rng.uniform(2.4e9, 5.9e9);
    const NdftPlan plan(freqs, grid, random_weights(rng, rows));
    const auto f = dense(plan);
    const std::size_t m = plan.cols();
    std::vector<std::uint32_t> all(m);
    std::iota(all.begin(), all.end(), 0u);
    std::vector<std::uint32_t> random_cols;
    for (std::uint32_t c = 0; c < m; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.3) random_cols.push_back(c);
    }
    const std::vector<std::vector<std::uint32_t>> lists = {
        {}, {static_cast<std::uint32_t>(m / 2)}, all, random_cols};
    for (const auto& cols : lists) {
      std::vector<std::complex<double>> p(m, {0.0, 0.0});
      std::vector<double> p_re(m, 0.0), p_im(m, 0.0);
      for (const std::uint32_t c : cols) {
        p[c] = rng.complex_gaussian(1.0);
        p_re[c] = p[c].real();
        p_im[c] = p[c].imag();
      }
      const auto want = f.multiply(p);
      // Four entries past the rows: the padding rows must not be written.
      std::vector<double> got_re(rows + 4, sentinel);
      std::vector<double> got_im(rows + 4, sentinel);
      plan.forward_active(p_re.data(), p_im.data(), cols, got_re.data(),
                          got_im.data());
      std::size_t mismatches = 0;
      for (std::size_t r = 0; r < rows + 4; ++r) {
        const double wr = r < rows ? want[r].real() : sentinel;
        const double wi = r < rows ? want[r].imag() : sentinel;
        mismatches += !same_bits(got_re[r], wr) || !same_bits(got_im[r], wi);
      }
      EXPECT_EQ(mismatches, 0u)
          << rows << " rows, " << cols.size() << " of " << m
          << " columns, kernel variant " << NdftPlan::kernel_variant();
    }
  }
}

TEST(NdftKernels, MatchedFilterScanMatchesPointEvaluation) {
  const auto freqs = plan_frequencies();
  NdftSolver solver(freqs, {0.0, 60e-9, 0.25e-9});
  const NdftPlan& plan = solver.plan();
  for (std::uint64_t seed : {5u, 6u}) {
    mathx::Rng rng(seed);
    const auto h = random_channel(rng, freqs);
    const double u0 = rng.uniform(0.0, 5e-9);
    const double du = rng.uniform(0.02e-9, 0.1e-9);
    const std::size_t count = 1501;  // bench-length scan
    std::vector<double> scan(count);
    solver.matched_filter_scan(h, u0, du, count, scan);
    double peak = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      peak = std::max(peak,
                      plan.matched_filter(h, u0 + static_cast<double>(k) * du));
    }
    for (std::size_t k = 0; k < count; ++k) {
      const double want =
          plan.matched_filter(h, u0 + static_cast<double>(k) * du);
      EXPECT_NEAR(scan[k], want, 1e-12 * peak)
          << "sample " << k << " of " << count;
    }
  }
}

TEST(NdftKernels, IstaAndFistaMatchDenseReferenceExactly) {
  // The solvers run the adjoint kernel and the proximal step on every
  // iteration: they must reproduce the dense reference bit for bit, on
  // this test's grid and on the production grid.
  const auto freqs = plan_frequencies();
  const IstaOptions opts;
  for (const DelayGrid grid :
       {DelayGrid{0.0, 40e-9, 0.5e-9}, DelayGrid{0.0, 150e-9, 0.125e-9}}) {
    for (std::uint64_t seed : {101u, 202u, 303u}) {
      SCOPED_TRACE(testing::Message() << "grid max " << grid.max_s
                                      << " step " << grid.step_s << " seed "
                                      << seed);
      mathx::Rng rng(seed);
      const auto weights = random_weights(rng, freqs.size());
      NdftSolver solver(freqs, grid, weights);
      const auto h = random_channel(rng, freqs);
      expect_same_solve(solver.solve_fista(h, opts),
                        reference_fista(solver, h, opts));
      expect_same_solve(solver.solve_ista(h, opts),
                        reference_ista(solver, h, opts));
    }
  }

  // The production input: office channels through the pipeline's solver
  // at the pipeline's options.
  const OfficeChannels office = office_channels(4);
  ASSERT_EQ(office.hs.size(), 4u);
  for (std::size_t k = 0; k < office.hs.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "office channel " << k);
    expect_same_solve(
        office.solver.solve_fista(office.hs[k], RangingConfig::solver_options),
        reference_fista(office.solver, office.hs[k],
                        RangingConfig::solver_options));
  }
}

TEST(NdftKernels, OmpMatchesLegacyReference) {
  const auto freqs = plan_frequencies();
  mathx::Rng rng(404);
  NdftSolver solver(freqs, {0.0, 40e-9, 0.5e-9});
  const auto h = random_channel(rng, freqs);
  const auto fast = solver.solve_omp(h, 6);
  const auto ref = reference_omp(solver, h, 6);
  EXPECT_EQ(fast.iterations, ref.iterations);
  EXPECT_LE(max_rel_err(fast.coefficients, ref.coefficients), 1e-12);
  EXPECT_NEAR(fast.residual_norm, ref.residual_norm,
              1e-12 * std::max(1.0, ref.residual_norm));
}

// ---- Allocation-free iteration loops ------------------------------------

TEST(NdftKernels, SolveLoopsAllocateNothingPerIteration) {
  const auto freqs = plan_frequencies();
  const NdftSolver test_solver(freqs, {0.0, 40e-9, 0.25e-9});
  mathx::Rng rng(7);
  const auto test_h = random_channel(rng, freqs);
  // The production shape: RangingConfig::grid and one office sweep, so the
  // full-grid first iterations and the working-set iterations after them
  // both run inside the counted window.
  const OfficeChannels office = office_channels(1);
  ASSERT_EQ(office.hs.size(), 1u);
  ASSERT_EQ(office.solver.grid().size(), RangingConfig::grid.size());

  IstaOptions opts;
  // No gap passes a negative tolerance: iteration count == budget, and the
  // gap checks at iterations 10, 20, ... run inside the counted window.
  opts.gap_tolerance = -1.0;

  auto count_allocs = [&](auto&& solve, int iterations) {
    opts.max_iterations = iterations;
    (void)solve(opts);  // warm the per-thread workspace for this shape
    const std::uint64_t before = g_alloc_count.load();
    const auto sol = solve(opts);
    const std::uint64_t after = g_alloc_count.load();
    EXPECT_EQ(sol.iterations, iterations);
    // The counted window redoes at least one step after a halving.
    EXPECT_GE(sol.step_halvings, 1);
    return after - before;
  };

  const std::pair<const NdftSolver*, const std::vector<std::complex<double>>*>
      problems[] = {{&test_solver, &test_h}, {&office.solver, &office.hs[0]}};
  for (const auto& [solver, h] : problems) {
    SCOPED_TRACE(testing::Message() << solver->grid().size() << " columns");
    auto ista = [&](const IstaOptions& o) { return solver->solve_ista(*h, o); };
    const auto ista_short = count_allocs(ista, 8);
    const auto ista_long = count_allocs(ista, 64);
    EXPECT_EQ(ista_short, ista_long)
        << "ISTA allocation count grew with the iteration budget";

    auto fista = [&](const IstaOptions& o) {
      return solver->solve_fista(*h, o);
    };
    const auto fista_short = count_allocs(fista, 8);
    const auto fista_long = count_allocs(fista, 64);
    EXPECT_EQ(fista_short, fista_long)
        << "FISTA allocation count grew with the iteration budget";
  }
}

TEST(NdftKernels, BacktrackingStepCertifiesEveryChannelKind) {
  // The backtracking step must reach the certified gap on every kind of
  // channel the solver sees, in well under the iterations the fixed step
  // gamma took (FISTA 120, 120, 200 and 250 on the four channels with
  // paths; ISTA 890, 900, 1870, and on the office channel no certificate
  // within 4000), and must neither stall nor halve forever where every
  // step is null.
  const auto freqs = plan_frequencies();
  const NdftSolver plan_solver(freqs, RangingConfig::grid);
  auto paths_channel =
      [&](std::initializer_list<std::pair<double, double>> paths) {
        std::vector<std::complex<double>> h(freqs.size(), {0.0, 0.0});
        for (std::size_t i = 0; i < freqs.size(); ++i) {
          for (const auto& [tau, amp] : paths) {
            h[i] += amp * std::polar(1.0, -kTwoPi * freqs[i] * tau);
          }
        }
        return h;
      };
  const OfficeChannels office = office_channels(1);
  ASSERT_EQ(office.hs.size(), 1u);
  const NdftSolver zero_weights(freqs, RangingConfig::grid,
                                std::vector<double>(freqs.size(), 0.0));
  const std::vector<std::complex<double>> zero_h(freqs.size(), {0.0, 0.0});

  struct Case {
    const char* name;
    const NdftSolver* solver;
    std::vector<std::complex<double>> h;
    int fista_below;  // 0: degenerate, certified at the first check
    int ista_below;
  };
  const Case cases[] = {
      {"anechoic, one path", &plan_solver, paths_channel({{12.34e-9, 1.0}}),
       80, 200},
      {"bench 2-path", &plan_solver,
       paths_channel({{15e-9, 1.0}, {28e-9, 0.4}}), 80, 200},
      {"fig4 3-path", &plan_solver,
       paths_channel({{5.2e-9, 0.45}, {10e-9, 0.5}, {16e-9, 0.25}}), 100,
       300},
      {"office", &office.solver, office.hs[0], 150, 600},
      {"all-zero h", &plan_solver, zero_h, 0, 0},
      {"zero-weight plan", &zero_weights, paths_channel({{15e-9, 1.0}}), 0,
       0},
  };
  const IstaOptions opts;
  for (const Case& c : cases) {
    for (const bool accelerate : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << c.name << (accelerate ? ", FISTA" : ", ISTA"));
      const SparseSolveResult sol = accelerate ? c.solver->solve_fista(c.h)
                                               : c.solver->solve_ista(c.h);
      EXPECT_TRUE(sol.converged);
      EXPECT_LE(sol.relative_gap, opts.gap_tolerance);
      const int below = accelerate ? c.fista_below : c.ista_below;
      if (below > 0) {
        EXPECT_LT(sol.iterations, below) << sol.step_halvings << " halvings";
        EXPECT_GE(sol.step_halvings, 1);
      } else {
        EXPECT_EQ(sol.iterations, 10);
        EXPECT_EQ(sol.step_halvings, 0);
      }
    }
  }
}

TEST(NdftKernels, RunRestrictedKernelsMatchFullKernelsBitwise) {
  const auto freqs = plan_frequencies();
  NdftSolver solver(freqs, {0.0, 150e-9, 0.125e-9});  // production grid
  const NdftPlan& plan = solver.plan();
  const std::size_t n = plan.rows();
  const std::size_t m = plan.cols();
  const auto last = static_cast<std::uint32_t>(m);
  NdftWorkspace ws;
  ws.bind(n, m);
  ASSERT_EQ(ws.work.size(), 1u);
  ASSERT_EQ(ws.work[0].lo, 0u);
  ASSERT_EQ(ws.work[0].hi, last);
  const std::vector<ColumnRun> full = ws.work;

  mathx::Rng rng(828);
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<double> v = rng.complex_gaussian(1.0);
    ws.h_re[i] = v.real();
    ws.h_im[i] = v.imag();
  }

  std::vector<std::vector<ColumnRun>> run_sets = {
      {{0, 1}},                                      // column 0 alone
      {{last - 1, last}},                            // column m-1 alone
      {{0, 7}, {9, 10}, {400, 433}, {1190, last}},   // both ends
      {{3, 4}, {5, 6}, {7, 8}, {1199, 1200}},        // single columns
  };
  std::vector<ColumnRun> random_runs;
  for (std::uint32_t lo = 0;;) {
    lo += static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    const auto hi = lo + static_cast<std::uint32_t>(rng.uniform_int(1, 25));
    if (hi > last) break;
    random_runs.push_back({lo, hi});
    lo = hi;
  }
  run_sets.push_back(random_runs);

  // Entries outside the runs must keep this value: the kernels write
  // nothing there. It is finite on purpose: a NaN would absorb a stray
  // accumulation and keep its bits.
  const double sentinel = 1234.5678;
  auto expect_restricted = [&](const std::vector<ColumnRun>& runs,
                               const std::vector<double>& want_re,
                               const std::vector<double>& want_im,
                               const std::vector<double>& got_re,
                               const std::vector<double>& got_im) {
    std::vector<char> in_run(m, 0);
    for (const ColumnRun run : runs) {
      std::fill(in_run.begin() + run.lo, in_run.begin() + run.hi, 1);
    }
    std::size_t mismatches = 0;
    for (std::size_t c = 0; c < m; ++c) {
      const double wr = in_run[c] ? want_re[c] : sentinel;
      const double wi = in_run[c] ? want_im[c] : sentinel;
      mismatches += !same_bits(got_re[c], wr) || !same_bits(got_im[c], wi);
    }
    EXPECT_EQ(mismatches, 0u) << "kernel variant "
                              << NdftPlan::kernel_variant();
  };

  for (std::size_t set = 0; set < run_sets.size(); ++set) {
    const std::vector<ColumnRun>& runs = run_sets[set];
    SCOPED_TRACE(testing::Message() << "run set " << set << " ("
                                    << runs.size() << " runs)");
    // Adjoint of a random vector.
    std::vector<double> want_re(m), want_im(m);
    plan.adjoint(ws.h_re.data(), ws.h_im.data(), want_re.data(),
                 want_im.data());
    std::vector<double> got_re(m, sentinel), got_im(m, sentinel);
    plan.adjoint(ws.h_re.data(), ws.h_im.data(), runs, got_re.data(),
                 got_im.data());
    expect_restricted(runs, want_re, want_im, got_re, got_im);

    // The gradient at points with one to 40 nonzero columns.
    for (const std::size_t count : {1u, 9u, 40u}) {
      SCOPED_TRACE(testing::Message() << "|A| = " << count);
      std::vector<double> y_re(m, 0.0), y_im(m, 0.0);
      ws.active.clear();
      while (ws.active.size() < count) {
        const auto k = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<int>(m) - 1));
        if (std::find(ws.active.begin(), ws.active.end(), k) ==
            ws.active.end()) {
          ws.active.push_back(k);
        }
      }
      std::sort(ws.active.begin(), ws.active.end());
      for (const std::uint32_t l : ws.active) {
        const std::complex<double> y = rng.complex_gaussian(1.0);
        y_re[l] = y.real();
        y_im[l] = y.imag();
      }
      // Full, then on the runs.
      residual_at(plan, y_re.data(), y_im.data(), ws);
      ws.work = full;
      plan.gradient_from_residual(ws);
      const std::vector<double> full_re = ws.grad_re;
      const std::vector<double> full_im = ws.grad_im;

      ws.work = runs;
      std::fill(ws.grad_re.begin(), ws.grad_re.end(), sentinel);
      std::fill(ws.grad_im.begin(), ws.grad_im.end(), sentinel);
      plan.gradient_from_residual(ws);
      expect_restricted(runs, full_re, full_im, ws.grad_re, ws.grad_im);
    }
  }
}

TEST(NdftKernels, PackedWorkingSetFollowsEveryRebuild) {
  // The gradient packs a working set of several runs once and reuses
  // the pack while ws.work is unchanged. Every working set below differs
  // from the one before it, as a gap check's rebuild would; W1 and W2 hold
  // the same number of columns, so a pack reused for W2 would have the
  // right size and the wrong columns.
  const auto freqs = plan_frequencies();
  NdftSolver solver(freqs, RangingConfig::grid);  // the production plan
  const NdftPlan& plan = solver.plan();
  const std::size_t n = plan.rows();
  const std::size_t m = plan.cols();
  const auto last = static_cast<std::uint32_t>(m);
  NdftWorkspace ws;
  ws.bind(n, m);  // W is every column: the gradient below is the reference

  mathx::Rng rng(929);
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<double> v = rng.complex_gaussian(1.0);
    ws.h_re[i] = v.real();
    ws.h_im[i] = v.imag();
  }
  // A point with 71 nonzero columns.
  std::vector<double> y_re(m, 0.0), y_im(m, 0.0);
  ws.active.clear();
  for (std::uint32_t k = 3; k < m; k += 17) {
    const std::complex<double> y = rng.complex_gaussian(1.0);
    y_re[k] = y.real();
    y_im[k] = y.imag();
    ws.active.push_back(k);
  }
  residual_at(plan, y_re.data(), y_im.data(), ws);
  plan.gradient_from_residual(ws);
  const std::vector<double> want_re = ws.grad_re;
  const std::vector<double> want_im = ws.grad_im;

  const std::vector<ColumnRun> w1 = {
      {0, 7}, {100, 140}, {600, 613}, {1190, last}};  // 71 columns
  const std::vector<ColumnRun> w2 = {
      {3, 10}, {200, 240}, {700, 713}, {1000, 1011}};  // 71 columns
  std::vector<ColumnRun> singles;
  for (std::uint32_t c = 5; c < last; c += 37) singles.push_back({c, c + 1});
  const std::pair<const char*, const std::vector<ColumnRun>*> sets[] = {
      {"W1", &w1},
      {"W2", &w2},
      {"W1 again", &w1},
      {"one-column runs", &singles}};

  // Entries outside W must keep this value; finite so that a stray
  // accumulation into it would show.
  const double sentinel = 1234.5678;
  for (const auto& [name, runs] : sets) {
    SCOPED_TRACE(name);
    ws.work = *runs;
    std::fill(ws.grad_re.begin(), ws.grad_re.end(), sentinel);
    std::fill(ws.grad_im.begin(), ws.grad_im.end(), sentinel);
    plan.gradient_from_residual(ws);
    std::vector<char> in_w(m, 0);
    for (const ColumnRun run : *runs) {
      std::fill(in_w.begin() + run.lo, in_w.begin() + run.hi, 1);
    }
    std::size_t mismatches = 0;
    for (std::size_t c = 0; c < m; ++c) {
      const double wr = in_w[c] ? want_re[c] : sentinel;
      const double wi = in_w[c] ? want_im[c] : sentinel;
      mismatches += !same_bits(ws.grad_re[c], wr) ||
                    !same_bits(ws.grad_im[c], wi);
    }
    EXPECT_EQ(mismatches, 0u) << "kernel variant "
                              << NdftPlan::kernel_variant();
  }
}

TEST(NdftKernels, DegenerateProblemsSolveWithoutAsserting) {
  const auto freqs = plan_frequencies();
  mathx::Rng rng(616);
  const auto h = random_channel(rng, freqs);
  const std::vector<std::complex<double>> zero_h(freqs.size(), {0.0, 0.0});

  struct Case {
    const char* name;
    DelayGrid grid;
    std::vector<double> weights;  // empty = default all-ones
    bool zero_channel;
  };
  const std::vector<double> zero_w(freqs.size(), 0.0);
  const std::vector<Case> cases = {
      {"single-column grid", {0.0, 0.4e-9, 1e-9}, {}, false},
      // All-zero row weights: F == 0, sigma == 0, gamma must degrade to 0
      // (not trip the old gamma > 0 postcondition).
      {"zero weights", {0.0, 20e-9, 0.5e-9}, zero_w, false},
      // Zero measurement on a healthy plan: effective alpha is 0 and every
      // gradient is exactly zero.
      {"zero channel", {0.0, 20e-9, 0.5e-9}, {}, true},
  };

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    NdftSolver solver(freqs, c.grid, c.weights);
    if (!c.weights.empty()) {
      EXPECT_EQ(solver.plan().gamma(), 0.0);
    }
    const auto& use_h = c.zero_channel ? zero_h : h;
    // The solve runs (does not assert) and is the dense reference's.
    const IstaOptions opts;
    const auto sol = solver.solve_fista(use_h, opts);
    expect_same_solve(sol, reference_fista(solver, use_h, opts));
    if (c.zero_channel) {
      for (const auto& v : sol.coefficients) {
        EXPECT_EQ(v, (std::complex<double>{0.0, 0.0}));
      }
      EXPECT_TRUE(sol.converged);
    }
  }
}

// ---- Duality-gap certificate ---------------------------------------------
//
// The solvers stop on a relative duality gap. These cases recompute the gap
// of every returned profile independently from the dense matrix and hold
// the stop rule to it: converged exactly when the gap is within the
// tolerance, and otherwise a solve that ran its whole iteration budget.

/// Recomputes the relative duality gap of `sol` from the dense matrix —
/// P = 1/2 ||h - F p||^2 + alpha sum |p_k|, theta = s r with
/// s = min(1, alpha / max|F^H r|), D = 1/2 ||h||^2 - 1/2 ||h - theta||^2 —
/// and holds the solver's certificate and stop to it.
void expect_certified(const NdftSolver& solver,
                      std::span<const std::complex<double>> h,
                      const IstaOptions& opts, const SparseSolveResult& sol) {
  const auto f = dense(solver.plan());
  const double alpha = reference_alpha(f, h, opts);
  const auto fp = f.multiply(sol.coefficients);
  std::vector<std::complex<double>> r(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) r[i] = h[i] - fp[i];
  const auto c = f.multiply_adjoint(r);
  double c_max = 0.0;
  for (const auto& v : c) c_max = std::max(c_max, std::abs(v));
  const double s = c_max > 0.0 ? std::min(1.0, alpha / c_max) : 1.0;
  std::vector<std::complex<double>> theta(h.size());
  std::vector<std::complex<double>> h_minus_theta(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    theta[i] = s * r[i];
    h_minus_theta[i] = h[i] - theta[i];
  }
  double l1 = 0.0;
  for (const auto& v : sol.coefficients) l1 += std::abs(v);
  const double r_norm = mathx::norm2(r);
  const double h_norm = mathx::norm2(h);
  const double d_norm = mathx::norm2(h_minus_theta);
  const double primal = 0.5 * r_norm * r_norm + alpha * l1;
  const double dual = 0.5 * h_norm * h_norm - 0.5 * d_norm * d_norm;
  const double want = primal > 0.0 ? (primal - dual) / primal : 0.0;

  EXPECT_NEAR(sol.relative_gap, want, 1e-9 * want);
  EXPECT_NEAR(sol.residual_norm, r_norm, 1e-12 * std::max(1.0, r_norm));
  // theta is dual feasible: |F^H theta| <= alpha on every column.
  double theta_corr = 0.0;
  for (const auto& v : f.multiply_adjoint(theta)) {
    theta_corr = std::max(theta_corr, std::abs(v));
  }
  EXPECT_LE(theta_corr, alpha * (1.0 + 1e-12));
  // The stop: converged exactly when the gap is within the tolerance, at
  // a check (every 10 iterations) or at the budget; otherwise the whole
  // budget ran.
  EXPECT_EQ(sol.converged, sol.relative_gap <= opts.gap_tolerance)
      << "gap " << sol.relative_gap;
  if (sol.converged) {
    EXPECT_TRUE(sol.iterations % 10 == 0 ||
                sol.iterations == opts.max_iterations)
        << sol.iterations << " iterations";
  } else {
    EXPECT_EQ(sol.iterations, opts.max_iterations);
  }
}

TEST(NdftCertificate, EverySolverReportsTheDenseRecomputedGap) {
  const auto freqs = plan_frequencies();
  struct Problem {
    NdftSolver solver;
    std::vector<std::complex<double>> h;
  };
  std::vector<Problem> problems;
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    mathx::Rng rng(seed);
    const auto weights = random_weights(rng, freqs.size());
    problems.push_back({NdftSolver(freqs, {0.0, 40e-9, 0.5e-9}, weights),
                        random_channel(rng, freqs)});
  }
  const OfficeChannels office = office_channels(4);
  ASSERT_EQ(office.hs.size(), 4u);
  for (const auto& h : office.hs) problems.push_back({office.solver, h});

  IstaOptions opts;
  opts.max_iterations = 1500;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "problem " << i);
    const Problem& pr = problems[i];
    const auto fista = pr.solver.solve_fista(pr.h, opts);
    expect_certified(pr.solver, pr.h, opts, fista);
    EXPECT_TRUE(fista.converged);
    expect_certified(pr.solver, pr.h, opts, pr.solver.solve_ista(pr.h, opts));
    const std::span<const std::complex<double>> one(pr.h);
    const auto batch = pr.solver.solve_fista_batch({&one, 1}, opts);
    ASSERT_EQ(batch.size(), 1u);
    expect_certified(pr.solver, pr.h, opts, batch[0]);
    // No iteration at all: the zero profile still carries its certificate.
    IstaOptions none = opts;
    none.max_iterations = 0;
    const auto unstarted = pr.solver.solve_fista(pr.h, none);
    EXPECT_EQ(unstarted.iterations, 0);
    expect_certified(pr.solver, pr.h, none, unstarted);
  }

  // The office panel through one batch call, at the production options.
  std::vector<std::span<const std::complex<double>>> spans;
  for (const auto& h : office.hs) spans.emplace_back(h);
  const auto panel =
      office.solver.solve_fista_batch(spans, RangingConfig::solver_options);
  ASSERT_EQ(panel.size(), office.hs.size());
  for (std::size_t k = 0; k < panel.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "office panel " << k);
    expect_certified(office.solver, office.hs[k],
                     RangingConfig::solver_options, panel[k]);
    EXPECT_TRUE(panel[k].converged);
  }
}

TEST(NdftCertificate, DegenerateInputsCertifyAtTheFirstCheck) {
  const auto freqs = plan_frequencies();
  mathx::Rng rng(616);
  const auto h = random_channel(rng, freqs);
  const std::vector<std::complex<double>> zero_h(freqs.size(), {0.0, 0.0});
  // h = 0 on a healthy plan: P = 0, so the gap is 0 by definition. All-zero
  // weights: F = 0, p stays 0 and theta = r = h closes the gap exactly.
  const NdftSolver healthy(freqs, {0.0, 20e-9, 0.5e-9});
  const NdftSolver zero_weights(freqs, {0.0, 20e-9, 0.5e-9},
                                std::vector<double>(freqs.size(), 0.0));
  const std::vector<std::pair<const NdftSolver*,
                              const std::vector<std::complex<double>>*>>
      cases = {{&healthy, &zero_h}, {&zero_weights, &h}, {&zero_weights,
                                                          &zero_h}};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    const NdftSolver& solver = *cases[i].first;
    const std::span<const std::complex<double>> hv(*cases[i].second);
    const auto batch = solver.solve_fista_batch({&hv, 1});
    ASSERT_EQ(batch.size(), 1u);
    for (const SparseSolveResult& sol :
         {solver.solve_fista(hv), solver.solve_ista(hv), batch[0]}) {
      EXPECT_EQ(sol.relative_gap, 0.0);
      EXPECT_TRUE(sol.converged);
      EXPECT_EQ(sol.iterations, 10);
      for (const auto& v : sol.coefficients) {
        EXPECT_EQ(v, (std::complex<double>{0.0, 0.0}));
      }
    }
  }
}

// ---- Plan ownership ------------------------------------------------------

TEST(NdftPlanOwnership, IndependentBuildsOfOneKeyAreBitIdentical) {
  const auto freqs = plan_frequencies();
  const DelayGrid grid{0.0, 25e-9, 0.5e-9};
  const NdftSolver solver(freqs, grid);
  const NdftPlan fresh(freqs, grid, {});
  ASSERT_NE(&solver.plan(), &fresh);
  // gamma comes from a fixed-seed power iteration: bitwise reproducible.
  EXPECT_TRUE(same_bits(solver.plan().gamma(), fresh.gamma()));
  ASSERT_EQ(solver.plan().rows(), fresh.rows());
  ASSERT_EQ(solver.plan().cols(), fresh.cols());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < fresh.rows(); ++i) {
    for (std::size_t k = 0; k < fresh.cols(); ++k) {
      const std::complex<double> a = solver.plan().at(i, k);
      const std::complex<double> b = fresh.at(i, k);
      mismatches += !same_bits(a.real(), b.real()) ||
                    !same_bits(a.imag(), b.imag());
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NdftPlanOwnership, SolversOfOneKeyTakeTurnsOnOneWorkspace) {
  // Two solvers of one key own two plans. Solving with them in turn on one
  // thread hands the thread's workspace from one plan to the other at
  // every solve; each solve binds it first, so the results match bit for
  // bit.
  const OfficeChannels office = office_channels(4);
  const NdftPlan& plan = office.solver.plan();
  const NdftSolver other(plan.row_freqs_hz(), plan.grid(),
                         plan.row_weights());
  ASSERT_NE(&other.plan(), &plan);
  ASSERT_EQ(office.hs.size(), 4u);
  const IstaOptions& opts = RangingConfig::solver_options;
  for (std::size_t k = 0; k < office.hs.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "office channel " << k);
    const auto a = office.solver.solve_fista(office.hs[k], opts);
    const auto b = other.solve_fista(office.hs[k], opts);
    const auto a_again = office.solver.solve_fista(office.hs[k], opts);
    expect_same_solve(b, a);
    expect_same_solve(a_again, b);
    EXPECT_TRUE(a.converged);
  }
}

TEST(NdftPlanOwnership, PackedWorkingSetFollowsThePlan) {
  // A workspace packed from plan A, then handed to plan B (same key but
  // for the row weights) with ws.work unchanged: B's gradient must repack
  // from B, so on W it equals B's gradient over every column.
  const auto freqs = plan_frequencies();
  mathx::Rng rng(3434);
  const NdftSolver solver_a(freqs, RangingConfig::grid);
  const NdftSolver solver_b(freqs, RangingConfig::grid,
                            random_weights(rng, freqs.size()));
  const NdftPlan& a = solver_a.plan();
  const NdftPlan& b = solver_b.plan();
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  const auto last = static_cast<std::uint32_t>(m);

  NdftWorkspace ws;
  ws.bind(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<double> v = rng.complex_gaussian(1.0);
    ws.h_re[i] = v.real();
    ws.h_im[i] = v.imag();
  }
  std::vector<double> y_re(m, 0.0), y_im(m, 0.0);
  ws.active.clear();
  for (std::uint32_t k = 7; k < m; k += 23) {
    const std::complex<double> y = rng.complex_gaussian(1.0);
    y_re[k] = y.real();
    y_im[k] = y.imag();
    ws.active.push_back(k);
  }
  // B's reference: the gradient over every column (one run, no pack).
  residual_at(b, y_re.data(), y_im.data(), ws);
  b.gradient_from_residual(ws);
  const std::vector<double> want_re = ws.grad_re;
  const std::vector<double> want_im = ws.grad_im;

  const std::vector<ColumnRun> w = {
      {0, 9}, {150, 190}, {640, 655}, {1180, last}};
  ws.work = w;
  residual_at(a, y_re.data(), y_im.data(), ws);
  a.gradient_from_residual(ws);  // packs W from A
  ASSERT_EQ(ws.pack_plan, &a);
  ASSERT_EQ(ws.pack_runs, w);

  residual_at(b, y_re.data(), y_im.data(), ws);
  const double sentinel = 1234.5678;
  std::fill(ws.grad_re.begin(), ws.grad_re.end(), sentinel);
  std::fill(ws.grad_im.begin(), ws.grad_im.end(), sentinel);
  b.gradient_from_residual(ws);
  EXPECT_EQ(ws.pack_plan, &b);
  std::vector<char> in_w(m, 0);
  for (const ColumnRun run : w) {
    std::fill(in_w.begin() + run.lo, in_w.begin() + run.hi, 1);
  }
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < m; ++c) {
    const double wr = in_w[c] ? want_re[c] : sentinel;
    const double wi = in_w[c] ? want_im[c] : sentinel;
    mismatches +=
        !same_bits(ws.grad_re[c], wr) || !same_bits(ws.grad_im[c], wi);
  }
  EXPECT_EQ(mismatches, 0u) << "kernel variant "
                            << NdftPlan::kernel_variant();
}

}  // namespace
}  // namespace chronos::core
