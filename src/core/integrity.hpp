// The hostile-sweep detection gate of the ranging pipeline.
//
// Chronos was built assuming every sweep arrives intact; the adversarial
// tier (ROADMAP "Adversarial robustness scenarios", the FTM security study
// in PAPERS.md) drops that assumption: sweeps may be truncated mid-sweep,
// replayed from a stale cache, carry lies about their band identity, have
// their SNR collapsed by interference, or arrive with spoofed delay
// offsets. The gate turns each of those into a typed per-request rejection
// — chronos::kMalformedSweep for structural damage, kIntegrityViolation
// for parseable-but-untrustworthy sweeps — instead of a silently wrong
// range.
//
// Three stages of checks, each where its inputs first exist:
//   * pre-combine screening (`screen_sweep`): the sweep's shape
//     (phy::check_sweep), its band count and band identities against the
//     pipeline's plan, timestamp freshness and an SNR floor. It reads the
//     captures' metadata and energies, no phase — cheap enough to run on
//     every request.
//   * direction symmetry (`check_slope_symmetry`), after combine and
//     before the solve: forward against reverse ToA slope, from the
//     per-band slope means combine_sweep computes anyway, so no capture is
//     unwrapped twice.
//   * post-estimate checks (inside RangingPipeline::finish): peakless
//     rejection and ToA-vs-ToF consistency against the calibrated
//     detection delay. These need the peak decision and the calibration
//     table, so they live in the pipeline tail.
//
// The default is compatibility-first: only the structural screen runs (it
// cannot trip on a sweep that matches the pipeline's plan — the six
// accuracy goldens pin this). IntegrityConfig::hostile() arms every other
// check, which is what the adversarial bench, chronosd's untrusted clients
// and the hostile-tier tests run under. The thresholds of both tiers are
// the constants below; they are calibrated so a clean simulated office
// sweep never trips them (false-reject floor in
// bench_ablation_adversarial), while each injected fault class of
// core/fault_injection.hpp trips at least one check.
#pragma once

#include <span>

#include "core/combining.hpp"
#include "mathx/status.hpp"
#include "phy/band_plan.hpp"
#include "phy/csi.hpp"

namespace chronos::core {

/// Freshness (pre-solve): every capture timestamp must lie in
/// [kMinTimestampS, kMaxSweepAgeS]. Live sweeps carry small positive
/// sweep-relative timestamps; a replayed (stale-cached) sweep shows up with
/// timestamps aged far outside the window.
inline constexpr double kMaxSweepAgeS = 120.0;
inline constexpr double kMinTimestampS = -1e-9;

/// Direction symmetry (after combine, pre-solve): the mean ToA slope of
/// the forward captures must agree with that of the reverse captures
/// within this bound. Both directions traverse the same channel, so honest
/// sweeps differ only by per-packet detection-delay jitter (a few ns after
/// averaging over the sweep's bands); a spoofed delay offset is applied by
/// the adversary to one direction of the exchange and shows up as a bias
/// equal to the full spoof (tens of ns).
inline constexpr double kMaxSlopeAsymmetryS = 40e-9;

/// Power sanity (pre-solve): floor on the mean per-capture SNR across the
/// sweep. Interference that collapses the link cannot yield a trustworthy
/// range (clean field links sit around 30 dB; the deepest honest fades stay
/// far above 5 dB on average across bands).
inline constexpr double kMinMeanSnrDb = 5.0;

/// ToA-vs-ToF consistency (post-estimate, needs a calibrated toa_bias): the
/// chosen direct path implies a detection delay (toa - tof) that must
/// agree with the calibrated expectation within this tolerance. A spoofed
/// delay offset shifts ToA and ToF by different amounts and breaks the
/// identity.
inline constexpr double kMaxToaDiscrepancyS = 25e-9;

/// How much of the detection gate runs.
struct IntegrityConfig {
  /// false (the default): the structural screen only, in this order —
  /// phy::check_sweep (kMalformedSweep: no bands, a band without captures,
  /// a capture mixing bands, a direction without finite positive CSI
  /// energy, a non-finite timestamp or SNR), then the band count against
  /// the pipeline's plan (kMalformedSweep: truncation), then phy::check_plan
  /// (kIntegrityViolation: a band that is not the plan's band, a lie about
  /// band identity).
  ///
  /// true: additionally, in this order, freshness and the SNR floor in the
  /// screen, direction symmetry after combine and before the solve, then
  /// peakless rejection (a sweep whose profile yields no acceptable
  /// direct-path peak — under the ToA gate the signature of a spoofed delay
  /// pushing the peak out of the gate, and of CSI that is noise) and
  /// ToA-vs-ToF consistency after it.
  bool all_checks = false;

  /// Every check armed: what the adversarial bench, its CI gate, chronosd's
  /// untrusted clients and the determinism-under-faults tests run with.
  static constexpr IntegrityConfig hostile() { return {.all_checks = true}; }
};

/// Pre-combine screening of `sweep` against the pipeline's band `plan`:
/// kOk, kMalformedSweep (structural damage), or kIntegrityViolation
/// (identity/freshness/power violations) per `config`.
[[nodiscard]] chronos::Status screen_sweep(const phy::SweepMeasurement& sweep,
                             std::span<const phy::WifiBand> plan,
                             const IntegrityConfig& config);

/// Direction symmetry of `sweep` from `combined`, its combine_sweep
/// result: kIntegrityViolation when the per-capture means of the forward
/// and the reverse ToA slopes differ by more than kMaxSlopeAsymmetryS
/// (each band's slope means weigh by its capture count), else kOk.
[[nodiscard]] chronos::Status check_slope_symmetry(
    const phy::SweepMeasurement& sweep, std::span<const CombinedBand> combined);

}  // namespace chronos::core
