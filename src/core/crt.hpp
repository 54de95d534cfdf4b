// Chinese-Remainder-style time-of-flight recovery (paper §4, Fig 3).
//
// Each band's center-frequency channel phase pins tau modulo 1/f_i:
//   tau = -angle(h_i)/(2*pi*f_i)  mod  1/f_i.
// Stitching bands turns this into a system of congruences whose solution is
// unique modulo lcm(1/f_i). With noisy phases the textbook integer CRT is
// brittle, so the solver scores every candidate tau on a fine grid by how
// many congruences it satisfies (the "most aligned colored lines" criterion
// of Fig 3), then refines the winner with a phase-coherent score.
//
// This module handles the single-dominant-path case the paper uses to
// explain the idea; the full multipath treatment is the inverse NDFT
// (core/ndft.hpp), of which this is the sparsest special case.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace chronos::core {

struct CrtSolution {
  double tof_s = 0.0;
  int satisfied_equations = 0;  ///< how many bands voted for the winner
  double alignment_score = 0.0; ///< sum_i cos(phase residual_i), max = n
};

/// Solutions of a single band's congruence within [0, tau_max): the
/// "colored vertical lines" of Fig 3. `channel` is the measured channel at
/// the band center `freq_hz`.
std::vector<double> candidate_solutions(std::complex<double> channel,
                                        double freq_hz, double tau_max_s);

/// Solves the system of congruences given per-band center-frequency
/// channels and their frequencies, searching tau in [0, tau_max_s] (the
/// default 200 ns is 60 m of flight) on a 10 ps grid. Requires at least
/// two bands.
CrtSolution solve_crt(std::span<const std::complex<double>> channels,
                      std::span<const double> freqs_hz,
                      double tau_max_s = 200e-9);

/// The phase-coherent alignment score at a specific candidate tau:
/// sum_i cos(angle(h_i) + 2*pi*f_i*tau). Exposed for Fig-3 style sweeps.
double alignment_score(std::span<const std::complex<double>> channels,
                       std::span<const double> freqs_hz, double tau_s);

}  // namespace chronos::core
