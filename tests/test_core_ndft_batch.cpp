// The multi-RHS batched FISTA contract (round 2): solve_fista_batch is a
// pure amortisation. Column k of a batch is BIT-identical to a standalone
// solve_fista of the same channel — at every panel width, and with any
// number of threads batching concurrently against one shared solver/plan. The session runtime does not call it (one request
// per job); bench_micro_core and rangebench's probe do (labelled
// `concurrency`: the thread test below is part of the tsan preset's
// suite).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>
#include <thread>
#include <vector>

#include "core/ndft.hpp"
#include "mathx/constants.hpp"
#include "phy/band_plan.hpp"

namespace chronos::core {
namespace {

using mathx::kTwoPi;

std::vector<double> plan_frequencies() {
  std::vector<double> f;
  for (const auto& b : phy::us_band_plan()) f.push_back(b.center_freq_hz);
  return f;
}

/// Two-path channel: direct path at `tau`, fixed reflection at 28 ns.
std::vector<std::complex<double>> channel(const std::vector<double>& freqs,
                                          double tau) {
  std::vector<std::complex<double>> h(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    h[i] = std::polar(1.0, -kTwoPi * freqs[i] * tau) +
           0.4 * std::polar(1.0, -kTwoPi * freqs[i] * 28e-9);
  }
  return h;
}

std::vector<std::vector<std::complex<double>>> panel(
    const std::vector<double>& freqs, std::size_t k_count) {
  std::vector<std::vector<std::complex<double>>> hs;
  hs.reserve(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    hs.push_back(channel(freqs, 12e-9 + 2e-9 * static_cast<double>(k)));
  }
  return hs;
}

std::vector<std::span<const std::complex<double>>> as_spans(
    const std::vector<std::vector<std::complex<double>>>& hs) {
  std::vector<std::span<const std::complex<double>>> spans;
  spans.reserve(hs.size());
  for (const auto& h : hs) spans.emplace_back(h);
  return spans;
}

void expect_bit_identical(const SparseSolveResult& got,
                          const SparseSolveResult& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.residual_norm, want.residual_norm);
  ASSERT_EQ(got.coefficients.size(), want.coefficients.size());
  EXPECT_TRUE(got.coefficients == want.coefficients)
      << "batched coefficients differ bitwise from the standalone solve";
}

TEST(NdftBatch, BatchMatchesSequentialBitwise) {
  const auto freqs = plan_frequencies();
  const NdftSolver solver(freqs, {0.0, 150e-9, 0.125e-9});
  const auto hs = panel(freqs, 5);
  const auto spans = as_spans(hs);

  const auto batched = solver.solve_fista_batch(spans);
  ASSERT_EQ(batched.size(), hs.size());
  for (std::size_t k = 0; k < hs.size(); ++k) {
    SCOPED_TRACE("rhs=" + std::to_string(k));
    expect_bit_identical(batched[k], solver.solve_fista(hs[k]));
  }
}

TEST(NdftBatch, SingleAndEmptyPanelsDegenerateCleanly) {
  const auto freqs = plan_frequencies();
  const NdftSolver solver(freqs, {0.0, 60e-9, 0.25e-9});
  const auto hs = panel(freqs, 1);
  const auto spans = as_spans(hs);

  const auto one = solver.solve_fista_batch(spans);
  ASSERT_EQ(one.size(), 1u);
  expect_bit_identical(one[0], solver.solve_fista(hs[0]));

  const std::vector<std::span<const std::complex<double>>> empty;
  EXPECT_TRUE(solver.solve_fista_batch(empty).empty());
}

TEST(NdftBatch, ConcurrentBatchesOnOneSharedSolverStayBitIdentical) {
  // Two threads drain different panels through ONE solver (and thus one
  // plan) simultaneously, each via its own per-thread workspace.
  // TSan runs this test as part of the concurrency label; bitwise equality
  // against sequentially computed references proves no shared mutable
  // state leaks between concurrent solves.
  const auto freqs = plan_frequencies();
  const NdftSolver solver(freqs, {0.0, 60e-9, 0.25e-9});
  const auto hs_a = panel(freqs, 4);
  auto hs_b = panel(freqs, 4);
  for (auto& h : hs_b) {
    for (auto& v : h) v *= std::complex<double>{0.8, 0.1};
  }

  const auto ref_a = solver.solve_fista_batch(as_spans(hs_a));
  const auto ref_b = solver.solve_fista_batch(as_spans(hs_b));

  std::vector<SparseSolveResult> got_a;
  std::vector<SparseSolveResult> got_b;
  std::thread worker_a(
      [&] { got_a = solver.solve_fista_batch(as_spans(hs_a)); });
  std::thread worker_b(
      [&] { got_b = solver.solve_fista_batch(as_spans(hs_b)); });
  worker_a.join();
  worker_b.join();

  ASSERT_EQ(got_a.size(), ref_a.size());
  ASSERT_EQ(got_b.size(), ref_b.size());
  for (std::size_t k = 0; k < ref_a.size(); ++k) {
    expect_bit_identical(got_a[k], ref_a[k]);
    expect_bit_identical(got_b[k], ref_b[k]);
  }
}

}  // namespace
}  // namespace chronos::core
