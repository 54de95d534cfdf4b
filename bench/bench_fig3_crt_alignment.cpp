// Fig 3 — CRT-style time-of-flight recovery: a transmitter at 0.6 m
// (tau = 2 ns) measured on five Wi-Fi channels. Each band pins tau modulo
// 1/f (the "colored lines"); the value satisfying all congruences is the
// true ToF.
#include <cstdio>

#include "bench_util.hpp"
#include "core/crt.hpp"
#include "mathx/constants.hpp"
#include "phy/band_plan.hpp"

int main() {
  using namespace chronos;
  bench::header("Fig 3", "measuring time-of-flight via phase congruences");

  const double tau = 2e-9;  // 0.6 m source
  const int channels[] = {1, 11, 36, 64, 165};  // 2.412 .. 5.825 GHz

  std::vector<std::complex<double>> h;
  std::vector<double> freqs;
  for (int ch : channels) {
    const auto& band = phy::band_by_channel(ch);
    freqs.push_back(band.center_freq_hz);
    h.push_back(std::polar(1.0, -mathx::kTwoPi * band.center_freq_hz * tau));
  }

  std::printf("  candidate solutions per band (tau mod 1/f), first 4 shown:\n");
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const auto cands = core::candidate_solutions(h[i], freqs[i], 3e-9);
    std::printf("    %.3f GHz:", freqs[i] / 1e9);
    for (std::size_t k = 0; k < cands.size() && k < 4; ++k) {
      std::printf(" %.3f ns", cands[k] * 1e9);
    }
    std::printf("  (period %.3f ns)\n", 1e9 / freqs[i]);
  }

  const auto sol = core::solve_crt(h, freqs, 60e-9);
  std::printf("\n  alignment winner: %.4f ns with %d/5 equations satisfied\n",
              sol.tof_s * 1e9, sol.satisfied_equations);
  bench::paper_vs_measured("recovered ToF", 2.0, sol.tof_s * 1e9, "ns");
  return 0;
}
