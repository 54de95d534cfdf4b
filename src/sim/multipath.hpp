// From geometry to channel: multipath components and frequency-domain
// channel synthesis (paper Eqn 1 and Eqn 7).
#pragma once

// Public-API leak guard: clients built against only the chronos:: facade
// (umbrella chronos.hpp) define CHRONOS_NO_SIM_IN_PUBLIC_API, and reaching
// any simulator header from there is a layering bug, caught at compile
// time (see examples/CMakeLists.txt, examples-public-api).
#ifdef CHRONOS_NO_SIM_IN_PUBLIC_API
#error "sim/ headers must not be reachable from the public chronos:: API"
#endif

#include <complex>
#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "sim/environment.hpp"

namespace chronos::sim {

/// One resolvable propagation path: h(f) contribution a * e^{-j2*pi*f*tau}.
struct PathComponent {
  double delay_s = 0.0;
  std::complex<double> gain;  ///< complex amplitude (includes bounce phase)
  int bounces = 0;
};

/// The propagation model's one switch. Its constants (path loss, bounce
/// phase, power floor, scatterer scale) live in sim/multipath.cpp.
struct PropagationModelParams {
  /// Include the environment's point scatterers (furniture echoes). Their
  /// near-direct components pull the recovered first peak late by a few
  /// hundred picoseconds — the dominant error source behind the paper's
  /// ~0.5 ns medians (thermal phase noise alone would permit ~0.02 ns at
  /// the stitched aperture).
  bool include_scatterers = true;
};

/// Enumerates the multipath components between tx and rx in `env`.
std::vector<PathComponent> compute_paths(
    const Environment& env, const geom::Vec2& tx, const geom::Vec2& rx,
    const PropagationModelParams& params = {});

/// Evaluates the noiseless channel at an absolute frequency:
///   h(f) = sum_p gain_p * e^{-j 2 pi f delay_p},
/// with one sincos per path. This is the Eqn 1 reference the tests compare
/// the simulator against; LinkSimulator::simulate_sweep evaluates the same
/// sum factored per band and subcarrier offset, which agrees with it to
/// rounding, not bit for bit.
std::complex<double> channel_at(std::span<const PathComponent> paths,
                                double freq_hz);

/// Total received power (sum of |gain|^2) — the quantity the link budget
/// compares against the noise floor to produce a packet SNR.
double total_power(std::span<const PathComponent> paths);

}  // namespace chronos::sim
