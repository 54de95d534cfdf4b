#include "mathx/fft.hpp"

#include <bit>
#include <cmath>

#include "mathx/annotations.hpp"
#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"

namespace chronos::mathx {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Bounded oldest-entry-evicted cache of shared plans, keyed by size. One
/// annotated capability like the NDFT PlanCache: the entry vector is
/// GUARDED_BY the mutex, so clang -Wthread-safety proves every access is
/// locked. Sixteen entries cover every size a process mixes in practice
/// (64-point OFDM symbols and the handful of band-count Bluestein sizes
/// with their inner pow2 plans).
constexpr std::size_t kFftPlanCacheMax = 16;

class FftPlanCache {
 public:
  std::shared_ptr<const FftPlan> find(std::size_t n) const
      CHRONOS_REQUIRES(mutex) {
    for (const auto& e : entries_) {
      if (e->size() == n) return e;
    }
    return nullptr;
  }

  void insert(std::shared_ptr<const FftPlan> plan) CHRONOS_REQUIRES(mutex) {
    if (entries_.size() >= kFftPlanCacheMax) entries_.erase(entries_.begin());
    entries_.push_back(std::move(plan));
  }

  std::size_t size() const CHRONOS_REQUIRES(mutex) { return entries_.size(); }
  void clear() CHRONOS_REQUIRES(mutex) { entries_.clear(); }

  mutable chronos::Mutex mutex;

 private:
  std::vector<std::shared_ptr<const FftPlan>> entries_
      CHRONOS_GUARDED_BY(mutex);
};

FftPlanCache& fft_plan_cache() {
  static FftPlanCache cache;
  return cache;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
  CHRONOS_EXPECTS(n > 0, "FftPlan of empty size");
  if (pow2_) {
    build_pow2_tables();
  } else {
    build_bluestein();
  }
}

void FftPlan::build_pow2_tables() {
  const std::size_t n = n_;
  // Twiddles, stage by stage. The historical in-place loop restarted
  // w = (1, 0) for every block of a stage and advanced it by w *= wlen, so
  // one table per stage built by the identical recurrence hands every block
  // the exact same values it used to compute.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    stage_off_.push_back(fwd_re_.size());
    const double ang_f = -kTwoPi / static_cast<double>(len);
    const double ang_i = +kTwoPi / static_cast<double>(len);
    const std::complex<double> wlen_f(std::cos(ang_f), std::sin(ang_f));
    const std::complex<double> wlen_i(std::cos(ang_i), std::sin(ang_i));
    std::complex<double> wf(1.0, 0.0);
    std::complex<double> wi(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      fwd_re_.push_back(wf.real());
      fwd_im_.push_back(wf.imag());
      inv_re_.push_back(wi.real());
      inv_im_.push_back(wi.imag());
      wf *= wlen_f;
      wi *= wlen_i;
    }
  }
  // Bit-reversal permutation, tabulated from the historical increment.
  brev_.assign(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    brev_[i] = static_cast<std::uint32_t>(j);
  }
}

void FftPlan::build_bluestein() {
  const std::size_t n = n_;
  // Bluestein: X_k = b*_k . (a ⊛ b) where a_i = x_i b*_i, b_i = e^{jπi²/N}.
  chirp_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // i*i can overflow intermediate precision for huge n; sizes here are
    // small (<= a few thousand), so direct evaluation is exact enough.
    const double phase = kPi * static_cast<double>(i) * static_cast<double>(i) /
                         static_cast<double>(n);
    chirp_[i] = std::polar(1.0, phase);
  }
  const std::size_t m = next_pow2(2 * n - 1);
  inner_ = get_or_create(m);
  std::vector<std::complex<double>> b(m, {0.0, 0.0});
  b[0] = chirp_[0];
  for (std::size_t i = 1; i < n; ++i) b[i] = b[m - i] = chirp_[i];
  inner_->forward_pow2(b);
  bhat_ = std::move(b);
}

std::shared_ptr<const FftPlan> FftPlan::get_or_create(std::size_t n) {
  CHRONOS_EXPECTS(n > 0, "FftPlan of empty size");
  FftPlanCache& cache = fft_plan_cache();
  {
    chronos::MutexLock lock(cache.mutex);
    if (auto hit = cache.find(n)) return hit;
  }

  // Build outside the lock (a non-pow2 build recursively enters the cache
  // for its inner pow2 plan, and the mutex is not recursive). A racing
  // duplicate build is resolved below by keeping the first inserted plan;
  // both are bitwise identical anyway.
  auto built = std::make_shared<const FftPlan>(n);

  chronos::MutexLock lock(cache.mutex);
  if (auto hit = cache.find(n)) return hit;
  cache.insert(built);
  return built;
}

std::size_t FftPlan::cache_size() {
  FftPlanCache& cache = fft_plan_cache();
  chronos::MutexLock lock(cache.mutex);
  return cache.size();
}

void FftPlan::clear_cache() {
  FftPlanCache& cache = fft_plan_cache();
  chronos::MutexLock lock(cache.mutex);
  cache.clear();
}

void FftPlan::forward_pow2(std::vector<std::complex<double>>& data) const {
  CHRONOS_EXPECTS(pow2_, "radix-2 FFT requires power-of-two size");
  CHRONOS_EXPECTS(data.size() == n_, "FFT input size/plan size mismatch");
  const std::size_t n = n_;
  auto& a = data;

  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = brev_[i];
    if (i < j) std::swap(a[i], a[j]);
  }

  std::size_t s = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++s) {
    const double* wr = fwd_re_.data() + stage_off_[s];
    const double* wi = fwd_im_.data() + stage_off_[s];
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> w(wr[k], wi[k]);
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + half] * w;
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
    }
  }
}

void FftPlan::inverse_pow2(std::vector<std::complex<double>>& data) const {
  CHRONOS_EXPECTS(pow2_, "radix-2 FFT requires power-of-two size");
  CHRONOS_EXPECTS(data.size() == n_, "FFT input size/plan size mismatch");
  const std::size_t n = n_;
  auto& a = data;

  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = brev_[i];
    if (i < j) std::swap(a[i], a[j]);
  }

  std::size_t s = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++s) {
    const double* wr = inv_re_.data() + stage_off_[s];
    const double* wi = inv_im_.data() + stage_off_[s];
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> w(wr[k], wi[k]);
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + half] * w;
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
    }
  }

  const double inv = 1.0 / static_cast<double>(n);
  for (auto& v : a) v *= inv;
}

std::vector<std::complex<double>> FftPlan::forward(
    std::span<const std::complex<double>> x) const {
  CHRONOS_EXPECTS(x.size() == n_, "FFT input size/plan size mismatch");
  if (pow2_) {
    std::vector<std::complex<double>> data(x.begin(), x.end());
    forward_pow2(data);
    return data;
  }

  const std::size_t n = n_;
  const std::size_t m = inner_->size();
  std::vector<std::complex<double>> a(m, {0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) a[i] = x[i] * std::conj(chirp_[i]);
  inner_->forward_pow2(a);
  for (std::size_t i = 0; i < m; ++i) a[i] *= bhat_[i];
  inner_->inverse_pow2(a);

  std::vector<std::complex<double>> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * std::conj(chirp_[i]);
  return out;
}

std::vector<std::complex<double>> FftPlan::inverse(
    std::span<const std::complex<double>> x) const {
  CHRONOS_EXPECTS(x.size() == n_, "FFT input size/plan size mismatch");
  // IFFT(x) = conj(FFT(conj(x))) / N.
  std::vector<std::complex<double>> tmp(n_);
  for (std::size_t i = 0; i < n_; ++i) tmp[i] = std::conj(x[i]);
  auto y = forward(tmp);
  const double inv = 1.0 / static_cast<double>(n_);
  for (auto& v : y) v = std::conj(v) * inv;
  return y;
}

void fft_pow2(std::vector<std::complex<double>>& data) {
  CHRONOS_EXPECTS(is_pow2(data.size()), "radix-2 FFT requires power-of-two size");
  FftPlan::get_or_create(data.size())->forward_pow2(data);
}

void ifft_pow2(std::vector<std::complex<double>>& data) {
  CHRONOS_EXPECTS(is_pow2(data.size()), "radix-2 FFT requires power-of-two size");
  FftPlan::get_or_create(data.size())->inverse_pow2(data);
}

std::vector<std::complex<double>> fft(
    std::span<const std::complex<double>> x) {
  CHRONOS_EXPECTS(!x.empty(), "fft of empty input");
  return FftPlan::get_or_create(x.size())->forward(x);
}

std::vector<std::complex<double>> ifft(
    std::span<const std::complex<double>> x) {
  CHRONOS_EXPECTS(!x.empty(), "ifft of empty input");
  return FftPlan::get_or_create(x.size())->inverse(x);
}

std::vector<std::complex<double>> dft_reference(
    std::span<const std::complex<double>> x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n, {0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -kTwoPi * static_cast<double>(k) *
                         static_cast<double>(t) / static_cast<double>(n);
      acc += x[t] * std::polar(1.0, ang);
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace chronos::mathx
