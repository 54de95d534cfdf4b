// Channel State Information containers and the Intel 5300 subcarrier layout.
//
// The 802.11n CSI feedback the Intel 5300 exposes (via the Linux CSI Tool the
// paper builds on) reports the complex channel on 30 grouped subcarriers per
// 20 MHz band. Chronos's pipeline consumes exactly this: a CsiMeasurement per
// (band, direction, packet).
//
// What the types cannot say, check_sweep and check_plan decide, once for
// every entry point: the trace parser, the trace recorder, the pipeline's
// integrity screen and chronos::Engine::estimate.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "mathx/status.hpp"
#include "phy/band_plan.hpp"

namespace chronos::phy {

/// Number of subcarriers the Intel 5300 reports per band.
inline constexpr std::size_t kIntel5300Subcarriers = 30;

/// The 30 subcarrier indices (of the 56 populated HT20 subcarriers) that the
/// Intel 5300 reports with 802.11n grouping Ng=2:
/// -28,-26,...,-2,-1, 1,3,...,27,28.
std::span<const int> intel5300_subcarrier_indices();

/// Frequency offset of subcarrier `index` from the band center.
double subcarrier_offset_hz(int index);

/// One CSI snapshot: the complex channel on the 30 reported subcarriers of
/// one band, for one packet. Its direction is the slot that holds it
/// (SweepMeasurement::BandCapture).
struct CsiMeasurement {
  WifiBand band;
  double timestamp_s = 0.0;  ///< when the packet was captured
  double snr_db = 30.0;      ///< post-processing SNR estimate for this packet
  /// Subcarrier order of intel5300_subcarrier_indices().
  std::array<std::complex<double>, kIntel5300Subcarriers> values{};

  /// Absolute frequency of the k-th reported subcarrier.
  double frequency_at(std::size_t k) const;

  /// The capture's CSI energy: the sum of |v|^2 over the 30 values, in
  /// subcarrier order. check_sweep requires it finite and positive; the
  /// band AGC and the SNR-collapse fault scale by its RMS,
  /// sqrt(energy() / 30).
  double energy() const;
};

/// All CSI collected in one full sweep of the band plan: for each band, one
/// or more forward/reverse measurement pairs.
struct SweepMeasurement {
  /// One two-way exchange (§7).
  struct BandCapture {
    CsiMeasurement forward;  ///< initiator's packet, measured at the responder
    CsiMeasurement reverse;  ///< responder's ACK, measured at the initiator
  };
  /// Per band: the captured packet exchanges (>= 1, more when the protocol
  /// retransmits; the pipeline averages them).
  std::vector<std::vector<BandCapture>> bands;
  double sweep_duration_s = 0.0;

  std::size_t band_count() const { return bands.size(); }
};

/// The shape of a well-formed sweep: kMalformedSweep naming the first
/// defect — no bands; a band without captures; a capture whose forward or
/// reverse band differs from its band's first capture; a direction whose
/// CSI energy (sum of |v|^2) is not finite and positive; a non-finite
/// timestamp or SNR. kOk otherwise.
[[nodiscard]] chronos::Status check_sweep(const SweepMeasurement& sweep);

/// Whether a sweep covers exactly `plan`, band for band: kBandMismatch when
/// the band count differs or a band is not the plan's band. Precondition:
/// check_sweep(sweep) passed.
[[nodiscard]] chronos::Status check_plan(const SweepMeasurement& sweep,
                                         std::span<const WifiBand> plan);

}  // namespace chronos::phy
