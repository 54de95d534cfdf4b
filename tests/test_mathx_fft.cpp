#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "mathx/constants.hpp"
#include "mathx/cvec.hpp"
#include "mathx/fft.hpp"
#include "mathx/rng.hpp"

namespace chronos::mathx {
namespace {

cvec random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvec v(n);
  for (auto& z : v) z = rng.complex_gaussian(1.0);
  return v;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 42 + n);
  const auto fast = fft(x);
  const auto ref = dft_reference(x);
  ASSERT_EQ(fast.size(), ref.size());
  EXPECT_LT(max_abs_diff(fast, ref), 1e-8 * static_cast<double>(n));
}

TEST_P(FftSizes, InverseRoundTrips) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 17 + n);
  const auto y = ifft(fft(x));
  EXPECT_LT(max_abs_diff(x, y), 1e-9 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowersAndOddballs, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 3, 5, 7, 12,
                                           29, 30, 53, 100));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  cvec x(16, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  const auto y = fft(x);
  for (const auto& v : y) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  cvec x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = std::polar(1.0, kTwoPi * static_cast<double>(k0 * t) /
                               static_cast<double>(n));
  }
  const auto y = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double mag = std::abs(y[k]);
    if (k == k0) {
      EXPECT_NEAR(mag, static_cast<double>(n), 1e-8);
    } else {
      EXPECT_LT(mag, 1e-8);
    }
  }
}

TEST(Fft, ParsevalHolds) {
  const auto x = random_signal(48, 7);
  const auto y = fft(x);
  EXPECT_NEAR(norm2_sq(y), 48.0 * norm2_sq(x), 1e-6 * norm2_sq(y));
}

TEST(Fft, LinearityHolds) {
  const auto a = random_signal(32, 1);
  const auto b = random_signal(32, 2);
  cvec sum(32);
  for (std::size_t i = 0; i < 32; ++i) sum[i] = a[i] + 2.0 * b[i];
  const auto fs = fft(sum);
  const auto fa = fft(a);
  const auto fb = fft(b);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(std::abs(fs[i] - (fa[i] + 2.0 * fb[i])), 0.0, 1e-8);
  }
}

TEST(Fft, Pow2InPlaceMatchesGeneric) {
  auto x = random_signal(128, 3);
  auto copy = x;
  fft_pow2(copy);
  const auto ref = fft(x);
  EXPECT_LT(max_abs_diff(copy, ref), 1e-8);
}

TEST(Fft, EmptyInputThrows) {
  cvec empty;
  EXPECT_THROW((void)fft(empty), std::invalid_argument);
  EXPECT_THROW((void)ifft(empty), std::invalid_argument);
}

TEST(Fft, NonPow2InPlaceThrows) {
  cvec x(12, {1.0, 0.0});
  EXPECT_THROW(fft_pow2(x), std::invalid_argument);
}

// ---- FftPlan (cached twiddles / bit-reversal / Bluestein) ----------------
//
// The free functions were rewritten over cached FftPlan tables; the rewrite
// is required to be BIT-identical to the pre-plan implementation (golden
// figure outputs depend on fft numerics through the OFDM sim). The legacy
// implementation is reimplemented verbatim here as the oracle.

namespace legacy {

void fft_radix2(cvec& a, int sign) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * kTwoPi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

void fft_pow2(cvec& d) { fft_radix2(d, -1); }

void ifft_pow2(cvec& d) {
  fft_radix2(d, +1);
  const double inv = 1.0 / static_cast<double>(d.size());
  for (auto& v : d) v *= inv;
}

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

cvec fft(const cvec& x) {
  const std::size_t n = x.size();
  if (is_pow2(n)) {
    auto d = x;
    fft_pow2(d);
    return d;
  }
  const std::size_t m = next_pow2(2 * n - 1);
  cvec chirp(n);
  for (std::size_t i = 0; i < n; ++i) {
    chirp[i] = std::polar(1.0, kPi * static_cast<double>(i) *
                                   static_cast<double>(i) /
                                   static_cast<double>(n));
  }
  cvec a(m, {0.0, 0.0});
  cvec b(m, {0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) a[i] = x[i] * std::conj(chirp[i]);
  b[0] = chirp[0];
  for (std::size_t i = 1; i < n; ++i) b[i] = b[m - i] = chirp[i];
  fft_pow2(a);
  fft_pow2(b);
  for (std::size_t i = 0; i < m; ++i) a[i] *= b[i];
  ifft_pow2(a);
  cvec out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * std::conj(chirp[i]);
  return out;
}

cvec ifft(const cvec& x) {
  cvec tmp(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) tmp[i] = std::conj(x[i]);
  auto y = fft(tmp);
  const double inv = 1.0 / static_cast<double>(x.size());
  for (auto& v : y) v = std::conj(v) * inv;
  return y;
}

}  // namespace legacy

class FftPlanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanSizes, BitIdenticalToPrePlanImplementation) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 1000 + n);
  const auto fwd = fft(x);
  const auto fwd_ref = legacy::fft(x);
  const auto inv = ifft(x);
  const auto inv_ref = legacy::ifft(x);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(fwd[i], fwd_ref[i]) << "forward n=" << n << " i=" << i;
    ASSERT_EQ(inv[i], inv_ref[i]) << "inverse n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PowersBluesteinAndSolverSizes, FftPlanSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 29, 30,
                                           35, 53, 64, 100, 128, 1000, 1024,
                                           1201, 4096));

TEST(FftPlan, CacheReturnsSharedPlans) {
  FftPlan::clear_cache();
  const auto a = FftPlan::get_or_create(256);
  const auto b = FftPlan::get_or_create(256);
  EXPECT_EQ(a.get(), b.get());  // one table build per size
  EXPECT_EQ(a->size(), 256u);
  EXPECT_GE(FftPlan::cache_size(), 1u);
  const auto c = FftPlan::get_or_create(300);  // Bluestein path
  EXPECT_NE(c.get(), a.get());
  FftPlan::clear_cache();
  EXPECT_EQ(FftPlan::cache_size(), 0u);
  // Plans handed out before the clear stay valid (shared ownership).
  const auto x = random_signal(256, 9);
  auto copy = x;
  a->forward_pow2(copy);
  a->inverse_pow2(copy);
  EXPECT_LT(max_abs_diff(copy, x), 1e-12);
}

}  // namespace
}  // namespace chronos::mathx
