// Two-way CSI measurement simulation.
//
// Produces exactly what the paper's modified iwlwifi driver hands to
// Chronos's software pipeline: for every Wi-Fi band in the sweep, one or
// more forward/reverse CSI pairs (packet + ACK), each corrupted by
//   * multipath (environment geometry),
//   * per-subcarrier AWGN at the link-budget SNR,
//   * per-packet detection delay rotating non-zero subcarriers (§5),
//   * residual CFO accumulating phase between packet and ACK (§7),
//   * a random per-hop LO phase common to both directions (cancelled by the
//     two-way product, §7),
//   * the devices' chain ripple / hardware group delay (kappa, §7),
//   * the Intel 5300 2.4 GHz quadrant ambiguity (§11 footnote 5).
// Every impairment can be toggled for ablation studies.
#pragma once

// Public-API leak guard: clients built against only the chronos:: facade
// (umbrella chronos.hpp) define CHRONOS_NO_SIM_IN_PUBLIC_API, and reaching
// any simulator header from there is a layering bug, caught at compile
// time (see examples/CMakeLists.txt, examples-public-api).
#ifdef CHRONOS_NO_SIM_IN_PUBLIC_API
#error "sim/ headers must not be reachable from the public chronos:: API"
#endif

#include <cstdint>
#include <vector>

#include "mathx/rng.hpp"
#include "phy/band_plan.hpp"
#include "phy/csi.hpp"
#include "sim/environment.hpp"
#include "sim/multipath.hpp"
#include "sim/radio.hpp"

namespace chronos::sim {

struct LinkSimConfig {
  /// Bands to sweep; defaults to the full 35-band US plan when empty.
  std::vector<phy::WifiBand> bands;
  /// Forward/reverse exchanges captured per band (the pipeline averages).
  int exchanges_per_band = 3;

  // Impairment toggles (all on = realistic; all off = textbook Eqn 7).
  bool enable_noise = true;
  bool enable_detection_delay = true;
  bool enable_cfo = true;
  bool enable_lo_phase = true;
  bool enable_chain_effects = true;  ///< kappa: hardware delay + band ripple
  bool enable_quirk = true;          ///< 2.4 GHz quadrant ambiguity

  PropagationModelParams propagation;
};

/// Simulates Chronos sweeps between one TX antenna and one RX antenna.
///
/// Thread safety: after construction the simulator is immutable — every
/// member function is const and touches no hidden mutable state (no caches,
/// no member RNG; randomness comes exclusively from the caller-supplied
/// `rng`). Concurrent simulate_sweep / paths_between calls on one shared
/// instance are safe and produce results identical to sequential calls,
/// provided each thread passes its own mathx::Rng (e.g. one Rng::split
/// stream per task, as core/session.cpp does). This guarantee is enforced by
/// tests/test_sim_concurrency.cpp under ThreadSanitizer.
class LinkSimulator {
 public:
  LinkSimulator(Environment env, LinkSimConfig config);

  /// Runs one full sweep and returns the per-band CSI captures. `tx`/`rx`
  /// devices supply radio personalities; `tx_antenna`/`rx_antenna` select
  /// the antenna pair being ranged. Safe for concurrent calls (see class
  /// comment); all draws come from `rng`, which must not be shared across
  /// threads.
  phy::SweepMeasurement simulate_sweep(const Device& tx, std::size_t tx_antenna,
                                       const Device& rx, std::size_t rx_antenna,
                                       mathx::Rng& rng) const;

  /// The multipath components the sweep would see (exposed for tests and
  /// for benches that need ground-truth path delays).
  std::vector<PathComponent> paths_between(const Device& tx,
                                           std::size_t tx_antenna,
                                           const Device& rx,
                                           std::size_t rx_antenna) const;

  const Environment& environment() const { return env_; }
  const LinkSimConfig& config() const { return config_; }
  /// Bands actually swept (config bands or the full US plan).
  const std::vector<phy::WifiBand>& bands() const { return bands_; }

 private:
  Environment env_;
  LinkSimConfig config_;
  std::vector<phy::WifiBand> bands_;
};

}  // namespace chronos::sim
