// Deterministic random number generation.
//
// Every stochastic component in the simulator (noise, detection delay, CFO,
// placement, packet loss) draws from an explicitly seeded generator so that
// tests and benches are reproducible bit-for-bit across runs.
#pragma once

#include <complex>
#include <cstdint>
#include <random>
#include <span>

namespace chronos::mathx {

/// A seeded PRNG facade over std::mt19937_64 with the distributions the
/// simulator needs. Cheap to copy; distinct subsystems should derive their
/// own stream via `fork()` to avoid cross-coupling of draws.
///
/// Two stream-derivation primitives with different contracts:
///   * `fork(tag)`   consumes one draw from the parent, so the child depends
///                   on *where* in the parent's sequence it was taken.
///   * `split(id)`   is const and position-independent: the child depends
///                   only on (construction seed, id). Splitting the same Rng
///                   with ids 0..N-1 yields the same N streams no matter how
///                   many draws the parent has made or in which order the
///                   splits happen — the property the batched ranging
///                   runtime relies on to stay bit-reproducible regardless
///                   of worker scheduling.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derives an independent child stream. Uses splitmix-style mixing of the
  /// parent's next raw draw so forks with different tags diverge.
  Rng fork(std::uint64_t tag);

  /// Derives an independent child stream identified by `stream_id`,
  /// deterministically from this Rng's construction seed alone. Does not
  /// advance this generator; safe to call concurrently from many threads.
  /// Distinct stream_ids give decorrelated streams (splitmix64 mixing).
  Rng split(std::uint64_t stream_id) const;

  /// The seed this generator was constructed with (the identity `split`
  /// derives children from).
  std::uint64_t seed() const { return seed_; }

  double uniform(double lo, double hi);
  int uniform_int(int lo, int hi);  ///< inclusive bounds
  /// The value std::normal_distribution<double>(mean, stddev) draws first
  /// from this engine, bit for bit (libstdc++'s Marsaglia polar method).
  double normal(double mean, double stddev);
  bool bernoulli(double p);

  /// Circularly-symmetric complex Gaussian with the given per-component
  /// standard deviation — the canonical AWGN model for CSI noise. Bit for
  /// bit the two values one std::normal_distribution<double>(0, stddev)
  /// draws from this engine: real part first.
  std::complex<double> complex_gaussian(double component_stddev);

  /// Fills `out` with out.size() successive complex_gaussian draws (the
  /// single draw is this call on one value). Draws every accepted polar
  /// point of a block first, then takes their logs, then their roots, so
  /// the transcendental work does not wait on the engine.
  void complex_gaussians(double component_stddev,
                         std::span<std::complex<double>> out);

  /// Uniform phase on [0, 2*pi), e.g. per-hop LO phase offsets.
  double uniform_phase();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace chronos::mathx
