// Fast Fourier transforms: iterative radix-2 plus Bluestein's algorithm for
// arbitrary lengths, with per-size cached plans.
//
// The OFDM PHY substrate uses 64-point transforms to synthesise and analyse
// 802.11 symbols. (The non-sparse inverse-NDFT ablation baseline needs no
// FFT: baseline/pseudo_inverse takes the minimum-norm solution or the
// adjoint directly on the non-uniform band frequencies.)
//
// FftPlan owns everything that depends only on the transform size: the
// per-stage twiddle factors, the bit-reversal permutation, and (for non-pow2
// sizes) the Bluestein chirp together with the FFT of its circulant kernel.
// Plans are shared through a bounded process-wide cache, so repeated calls
// of any size stop recomputing that state. The free functions below are thin
// wrappers over the cache and reproduce the historical uncached results
// bit-for-bit: the twiddle tables are generated by the exact same complex
// recurrence the in-place loop used to evaluate on the fly.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace chronos::mathx {

/// Immutable per-size FFT precomputation. Thread-safe to share: every method
/// is const and touches only immutable state.
class FftPlan {
 public:
  /// Builds a plan without consulting the cache (tests, one-off sizes).
  explicit FftPlan(std::size_t n);

  /// Returns the shared plan for this size, building it on first use. The
  /// cache is process-wide, bounded, and guarded by an annotated
  /// chronos::Mutex capability (every entry access is provably locked under
  /// clang -Wthread-safety).
  static std::shared_ptr<const FftPlan> get_or_create(std::size_t n);

  static std::size_t cache_size();
  static void clear_cache();

  std::size_t size() const { return n_; }
  bool pow2() const { return pow2_; }

  /// In-place forward DFT (engineering sign convention:
  /// X_k = sum x_n e^{-j2πkn/N}) for power-of-two plans. Bit-identical to
  /// the historical table-free in-place code.
  void forward_pow2(std::vector<std::complex<double>>& data) const;

  /// In-place inverse DFT (1/N normalised) for power-of-two plans.
  void inverse_pow2(std::vector<std::complex<double>>& data) const;

  /// Out-of-place forward DFT of any size (Bluestein's chirp-z transform for
  /// non-pow2 sizes, with the chirp and FFT(b) read from the plan).
  std::vector<std::complex<double>> forward(
      std::span<const std::complex<double>> x) const;

  /// Out-of-place inverse DFT of any size (1/N normalised).
  std::vector<std::complex<double>> inverse(
      std::span<const std::complex<double>> x) const;

 private:
  void build_pow2_tables();
  void build_bluestein();

  std::size_t n_ = 0;
  bool pow2_ = false;
  // Per-stage twiddles for pow2 transforms, flattened: stage s covers
  // butterfly span len = 2^(s+1) and its k-th twiddle lives at
  // stage_off_[s] + k. Built by the exact w *= wlen recurrence of the
  // historical in-place code (which restarted w = 1 for every block), so
  // table-driven butterflies are bit-identical to it. fwd = sign -1
  // (forward), inv = sign +1 (inverse).
  std::vector<std::size_t> stage_off_;
  std::vector<double> fwd_re_, fwd_im_;
  std::vector<double> inv_re_, inv_im_;
  std::vector<std::uint32_t> brev_;
  // Bluestein state (non-pow2 sizes only): chirp_i = e^{jπi²/N}, the inner
  // pow2 plan of size m = next_pow2(2N-1), and bhat = FFT(b) where b is the
  // circulant chirp kernel — cached once instead of re-transformed per call.
  std::shared_ptr<const FftPlan> inner_;
  std::vector<std::complex<double>> chirp_;
  std::vector<std::complex<double>> bhat_;
};

/// In-place forward DFT (engineering sign convention: X_k = sum x_n e^{-j2πkn/N})
/// for power-of-two sizes. Thin wrapper over the plan cache.
void fft_pow2(std::vector<std::complex<double>>& data);

/// In-place inverse DFT (1/N normalised) for power-of-two sizes.
void ifft_pow2(std::vector<std::complex<double>>& data);

/// Forward DFT of arbitrary length via Bluestein's chirp-z transform.
std::vector<std::complex<double>> fft(std::span<const std::complex<double>> x);

/// Inverse DFT of arbitrary length (1/N normalised).
std::vector<std::complex<double>> ifft(std::span<const std::complex<double>> x);

/// Reference O(N^2) DFT used by tests to validate the fast paths.
std::vector<std::complex<double>> dft_reference(
    std::span<const std::complex<double>> x);

}  // namespace chronos::mathx
