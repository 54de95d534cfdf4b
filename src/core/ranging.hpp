// The end-to-end Chronos ranging pipeline: SweepMeasurement -> time-of-
// flight -> distance.
//
// Steps (paper §4-§7):
//  1. interpolate every capture to the zero subcarrier  (kills detection delay)
//  2. exponentiate + multiply forward/reverse, average  (kills CFO/LO/quirk)
//  3. apply the one-time calibration                    (kills kappa/HW delay)
//  4. sparse inverse-NDFT over the u = 2*tau grid       (resolves multipath)
//  5. direct-path pick -> u*; tof = u*/2; d = c*tof. With the ToA gate on
//     and a calibration that sets has_toa_bias (the default: every
//     calibration does), the candidates are matched-filter maxima in a
//     +-15 ns window around the coarse subcarrier-slope ToF, and step 4's
//     profile is not read. With the gate off they are the profile's peaks
//     (the paper's first-peak rule), screened for lattice ghosts.
#pragma once

#include <optional>
#include <span>

#include "core/combining.hpp"
#include "core/integrity.hpp"
#include "core/ndft.hpp"
#include "core/profile.hpp"
#include "mathx/status.hpp"
#include "phy/csi.hpp"

namespace chronos::core {

/// What a caller chooses about the pipeline. Everything else it runs with
/// is a named constant: the delay grid and solver options below, and the
/// peak-selection constants in ranging.cpp.
struct RangingConfig {
  CombiningConfig combining;
  /// Coarse ToA gating: the subcarrier phase slope gives tof + detection
  /// delay per packet; after subtracting the calibrated mean detection
  /// delay, the true tof is known to a few ns — far tighter than the 50 ns
  /// lattice period. The direct-path candidates then come from a
  /// matched-filter scan of a +-15 ns window around that coarse estimate,
  /// which deterministically resolves the lattice ambiguity. Requires a
  /// calibration table with toa_bias (falls back to the profile-peak
  /// selection otherwise).
  bool use_toa_gate = true;
  /// Hostile-sweep detection gate (core/integrity.hpp): the structural
  /// screen by default, which a plan-matching sweep cannot trip — the
  /// accuracy goldens pin that a zero-fault pipeline is unchanged.
  /// IntegrityConfig::hostile() arms every check.
  IntegrityConfig integrity;

  /// Delay grid on the u = scale*tau axis. It covers 0-150 ns (two-way
  /// direct paths up to 22 m plus reflection cross-terms), which
  /// deliberately excludes the strong ~200 ns grating lobe of the US band
  /// plan (24 of 35 centers share a 5 MHz grid).
  static constexpr DelayGrid grid{0.0, 150e-9, 0.125e-9};
  /// Options of the FISTA solve that inverts every sweep.
  static constexpr IstaOptions solver_options{};
};

/// Diagnostic record of one first-peak candidate (exposed so applications
/// and benches can audit why a peak was or wasn't chosen as direct path).
struct PeakCandidate {
  double delay_s = 0.0;  ///< where its local MF maximum lies on the u axis
  /// Its profile cluster's peak |p| (ToA gate off), else matched_filter.
  double amplitude = 0.0;
  double matched_filter = 0.0;  ///< the raw MF value at delay_s
  bool accepted = false;        ///< true for the chosen direct path
};

struct RangingResult {
  /// API v2: request-shaped failures (unknown node, unrecorded trace link,
  /// malformed sweep, ...) land here instead of aborting a batch; the
  /// estimate fields below are meaningful only when status.ok().
  chronos::Status status;
  double tof_s = 0.0;
  double distance_m = 0.0;
  MultipathProfile profile;        ///< on the u axis (u = scale * tau)
  std::vector<PeakCandidate> candidates;  ///< first-peak audit trail
  double delay_axis_scale = 2.0;   ///< u/tau
  /// Mean time-of-arrival (tof + detection delay) from forward captures,
  /// and the implied detection delay estimate.
  double toa_s = 0.0;
  double detection_delay_s = 0.0;
  bool peak_found = false;
  int solver_iterations = 0;
  /// Ranging attempts consumed (1 without retries; >1 when a RetryPolicy
  /// re-ranged after retryable failures — see core/retry.hpp).
  int attempts = 1;
};

/// Reusable pipeline: the NDFT matrix depends only on (bands, exponents,
/// grid), so construct once and range many sweeps.
class RangingPipeline {
 public:
  /// `bands` must list the bands sweeps will contain, in sweep order.
  RangingPipeline(const std::vector<phy::WifiBand>& bands,
                  RangingConfig config = {});

  /// Runs the full pipeline on one sweep. `calibration` may be empty (then
  /// hardware constants bias the estimate — see core/calibration.hpp).
  RangingResult estimate(const phy::SweepMeasurement& sweep,
                         const CalibrationTable& calibration = {}) const;

  /// estimate() on each sweep in turn: result i is
  /// estimate(sweeps[i], calibration). The ranging runtime does not call
  /// it (every session job ranges one request); the end-to-end benchmark
  /// does.
  std::vector<RangingResult> estimate_batch(
      std::span<const phy::SweepMeasurement> sweeps,
      const CalibrationTable& calibration = {}) const;

  const RangingConfig& config() const { return config_; }
  const NdftSolver& solver() const { return solver_; }

 private:
  /// Everything estimate() derives from the combined bands before the
  /// solver runs: the weighted measurement vector plus the ToA/SNR means
  /// the peak-selection tail consumes.
  struct PreparedSweep {
    std::vector<std::complex<double>> h;
    double toa_s = 0.0;
    double field_snr_db = 0.0;
  };

  PreparedSweep prepare(const std::vector<CombinedBand>& combined) const;
  RangingResult finish(const PreparedSweep& prep, SparseSolveResult solution,
                       const CalibrationTable& calibration) const;

  RangingConfig config_;
  std::vector<phy::WifiBand> bands_;
  NdftSolver solver_;
};

}  // namespace chronos::core
