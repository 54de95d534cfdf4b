// Device and radio-hardware models.
//
// Captures everything about a Wi-Fi card that corrupts CSI phase beyond the
// over-the-air channel (paper §7): carrier-frequency offset from crystal
// ppm error, the per-hop random synthesizer phase, the reciprocity constant
// kappa (transmit/receive chain asymmetry, modelled as a hardware group
// delay plus fixed per-band phase ripple), transmit power, and noise floor.
#pragma once

// Public-API leak guard: clients built against only the chronos:: facade
// (umbrella chronos.hpp) define CHRONOS_NO_SIM_IN_PUBLIC_API, and reaching
// any simulator header from there is a layering bug, caught at compile
// time (see examples/CMakeLists.txt, examples-public-api).
#ifdef CHRONOS_NO_SIM_IN_PUBLIC_API
#error "sim/ headers must not be reachable from the public chronos:: API"
#endif

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"
#include "mathx/rng.hpp"
#include "phy/band_plan.hpp"

namespace chronos::sim {

// The Intel 5300's radio hardware, the same on every simulated card (a
// card's own personality is its Device::hardware_seed).

/// Residual CFO after the NIC's preamble-based correction. The raw crystal
/// offset (up to +-20 ppm, hundreds of kHz) is corrected by hardware; what
/// leaks into CSI is a per-packet residual of a few hundred Hz.
inline constexpr double kResidualCfoStdHz = 300.0;
/// Hardware group delay through the TX+RX chains [s]; shows up as a
/// constant time-of-flight bias until calibrated out.
inline constexpr double kHardwareDelayS = 12e-9;
/// Std-dev of the fixed per-band phase ripple of the chains [rad].
inline constexpr double kBandRippleStdRad = 0.05;
/// Transmit power and receiver noise floor of the link budget.
inline constexpr double kTxPowerDbm = 15.0;
inline constexpr double kNoiseFloorDbm = -82.0;

/// A Wi-Fi device: antenna positions (absolute, on the floor plan) plus its
/// hardware personality. The per-band chain ripple is derived
/// deterministically from the hardware seed so a device keeps its
/// personality across sweeps — which is what makes one-time calibration
/// (§7) meaningful.
///
/// The seed is fixed at construction, and the constructor derives the 35
/// ripples then: band b's is Rng(seed).fork(b + 1).normal(0,
/// kBandRippleStdRad). A device is complete before any use, so concurrent
/// const use reads an immutable table and no table can go stale. Deriving
/// a table seeds 35 Mersenne twisters (about 0.1 ms), so devices built with
/// one seed share one process-wide table, derived when the first of them
/// is built; tables are never changed or freed.
class Device {
 public:
  /// Hardware seed 1, no antennas.
  Device();
  explicit Device(std::uint64_t hardware_seed,
                  std::vector<geom::Vec2> antennas = {});

  /// A device known by its seed and antenna count alone, with no radio
  /// personality (antennas at the origin): what a replay backend resolves
  /// a node to. Nothing is derived; chain_ripple_rad refuses it.
  static Device identity(std::uint64_t hardware_seed,
                         std::size_t antenna_count);

  std::vector<geom::Vec2> antennas;

  std::uint64_t hardware_seed() const { return hardware_seed_; }

  /// Fixed phase ripple of this device's chain on band `band_index` (below
  /// phy::kUsPlanBands) of the US plan. std::invalid_argument for an
  /// identity() device.
  double chain_ripple_rad(std::size_t band_index) const;

 private:
  using RippleTable = std::array<double, phy::kUsPlanBands>;
  Device(std::uint64_t hardware_seed, std::vector<geom::Vec2> antennas,
         const RippleTable* ripple_rad);

  std::uint64_t hardware_seed_;
  const RippleTable* ripple_rad_;  ///< nullptr for an identity() device
};

/// A 3-antenna laptop (Intel 5300): antennas on a line with the given
/// spacing, centred at `center`, default 30 cm total aperture (paper §12.2).
Device make_laptop(const geom::Vec2& center, double antenna_span_m = 0.3,
                   std::uint64_t hardware_seed = 1);

/// An access-point-like device with a 100 cm antenna baseline (§12.2).
Device make_access_point(const geom::Vec2& center,
                         double antenna_span_m = 1.0,
                         std::uint64_t hardware_seed = 2);

/// A single-antenna device in the user's pocket (§9).
Device make_mobile(const geom::Vec2& position, std::uint64_t hardware_seed = 3);

/// Link-budget SNR for a packet with the given received power (linear |h|^2
/// aggregated over paths) between two radios.
double packet_snr_db(double channel_power_linear);

}  // namespace chronos::sim
