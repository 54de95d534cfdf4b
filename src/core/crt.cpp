#include "core/crt.hpp"

#include <cmath>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"
#include "mathx/unwrap.hpp"

namespace chronos::core {

namespace {
constexpr double kTauMinS = 0.0;
constexpr double kGridStepS = 10e-12;  ///< candidate spacing
/// A congruence counts as satisfied when the candidate lands within this
/// fraction of the band's period 1/f_i of a solution line.
constexpr double kToleranceFraction = 0.12;
}  // namespace

std::vector<double> candidate_solutions(std::complex<double> channel,
                                        double freq_hz, double tau_max_s) {
  CHRONOS_EXPECTS(freq_hz > 0.0, "frequency must be positive");
  CHRONOS_EXPECTS(tau_max_s > 0.0, "tau_max must be positive");
  // tau = -angle(h)/(2 pi f) mod 1/f.
  const double period = 1.0 / freq_hz;
  double base = -std::arg(channel) / (mathx::kTwoPi * freq_hz);
  base = mathx::wrap_to_period(base, period);

  std::vector<double> out;
  for (double tau = base; tau < tau_max_s; tau += period) out.push_back(tau);
  return out;
}

double alignment_score(std::span<const std::complex<double>> channels,
                       std::span<const double> freqs_hz, double tau_s) {
  CHRONOS_EXPECTS(channels.size() == freqs_hz.size(),
                  "channels/freqs size mismatch");
  double score = 0.0;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    score += std::cos(std::arg(channels[i]) +
                      mathx::kTwoPi * freqs_hz[i] * tau_s);
  }
  return score;
}

CrtSolution solve_crt(std::span<const std::complex<double>> channels,
                      std::span<const double> freqs_hz, double tau_max_s) {
  CHRONOS_EXPECTS(channels.size() == freqs_hz.size() && channels.size() >= 2,
                  "need at least two band measurements");
  CHRONOS_EXPECTS(tau_max_s > kTauMinS, "bad search window");

  // Precompute each band's base solution and period.
  const std::size_t n = channels.size();
  std::vector<double> base(n), period(n);
  for (std::size_t i = 0; i < n; ++i) {
    CHRONOS_EXPECTS(freqs_hz[i] > 0.0, "frequency must be positive");
    period[i] = 1.0 / freqs_hz[i];
    base[i] = mathx::wrap_to_period(
        -std::arg(channels[i]) / (mathx::kTwoPi * freqs_hz[i]), period[i]);
  }

  // Coarse scan: count satisfied congruences at each grid candidate,
  // breaking ties with the phase-coherent score.
  CrtSolution best;
  best.satisfied_equations = -1;
  for (double tau = kTauMinS; tau <= tau_max_s; tau += kGridStepS) {
    int votes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double residual =
          mathx::wrap_to_period(tau - base[i] + period[i] / 2.0, period[i]) -
          period[i] / 2.0;
      if (std::abs(residual) <= kToleranceFraction * period[i]) ++votes;
    }
    if (votes > best.satisfied_equations) {
      best.satisfied_equations = votes;
      best.tof_s = tau;
      best.alignment_score = alignment_score(channels, freqs_hz, tau);
    } else if (votes == best.satisfied_equations) {
      const double score = alignment_score(channels, freqs_hz, tau);
      if (score > best.alignment_score) {
        best.tof_s = tau;
        best.alignment_score = score;
      }
    }
  }

  // Local refinement: golden-section style shrink around the winner using
  // the smooth alignment score.
  double lo = best.tof_s - kGridStepS;
  double hi = best.tof_s + kGridStepS;
  for (int it = 0; it < 40; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (alignment_score(channels, freqs_hz, m1) <
        alignment_score(channels, freqs_hz, m2)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  best.tof_s = (lo + hi) / 2.0;
  best.alignment_score = alignment_score(channels, freqs_hz, best.tof_s);
  return best;
}

}  // namespace chronos::core
