#include "core/ranging.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"
#include "phy/detection.hpp"

namespace chronos::core {

namespace {

/// First-peak acceptance threshold relative to the strongest peak.
constexpr double kFirstPeakThreshold = 0.15;
/// Matched-filter validation of first-peak candidates: a genuine direct
/// path coheres across (nearly) all bands, while sparse-recovery artifacts
/// do not. A candidate is accepted only if its raw matched filter reaches
/// this fraction of the best candidate's.
constexpr double kFirstPeakMfRatio = 0.7;
/// Grating-ghost suppression. The 20 MHz channel lattice of the 5 GHz plan
/// (and of the quirk-fixed 2.4 GHz rows, whose x4 maps 5 MHz channel steps
/// onto the same 20 MHz grid) makes every real path echo at +-k * 50 ns
/// with ~0.6 relative coherence — only the 5 MHz-offset UNII-3 group
/// breaks the lattice. A candidate whose lattice-shifted probe scores
/// higher is a ghost.
constexpr double kAliasPeriodS = 50e-9;
/// Half-width of the coarse ToA gate (RangingConfig::use_toa_gate). It
/// covers per-packet detection jitter plus the SNR dependence of the mean
/// detection delay between calibration fixture and field.
constexpr double kToaGateS = 15e-9;
/// Continuous refinement of the direct path: subtract every other
/// cluster's contribution from h, then locally maximise the matched filter
/// within this half-width of the first peak (CLEAN-style). Recovers the
/// precision the 0.125 ns grid quantisation discards.
constexpr double kRefineHalfWidthS = 0.3e-9;
/// Weight of the 2.4 GHz rows when the quadrant fix raises them to h^8: the
/// eighth power distorts their magnitudes relative to the shared sparse
/// model, so they get less authority in the weighted-L2 data term (they
/// still extend the phase aperture). 5 GHz rows always weigh 1.
constexpr double kQuirkRowWeight = 0.15;

std::vector<double> row_frequencies(const std::vector<phy::WifiBand>& bands,
                                    const CombiningConfig& combining) {
  std::vector<double> freqs;
  freqs.reserve(bands.size());
  for (const auto& b : bands) {
    freqs.push_back(static_cast<double>(quadrant_exponent(b, combining)) *
                    b.center_freq_hz);
  }
  return freqs;
}

std::vector<double> row_weights(const std::vector<phy::WifiBand>& bands,
                                const CombiningConfig& combining) {
  std::vector<double> weights;
  weights.reserve(bands.size());
  for (const auto& b : bands) {
    weights.push_back(quadrant_exponent(b, combining) != 1 ? kQuirkRowWeight
                                                           : 1.0);
  }
  return weights;
}

}  // namespace

RangingPipeline::RangingPipeline(const std::vector<phy::WifiBand>& bands,
                                 RangingConfig config)
    : config_(std::move(config)),
      bands_(bands),
      solver_(row_frequencies(bands, config_.combining), RangingConfig::grid,
              row_weights(bands, config_.combining)) {
  CHRONOS_EXPECTS(!bands_.empty(), "pipeline needs at least one band");
}

RangingPipeline::PreparedSweep RangingPipeline::prepare(
    const std::vector<CombinedBand>& combined) const {
  CHRONOS_EXPECTS(combined.size() == bands_.size(),
                  "sweep band count does not match the pipeline");

  std::vector<std::complex<double>> raw(combined.size());
  double toa_acc = 0.0;
  double snr_acc = 0.0;
  for (std::size_t i = 0; i < combined.size(); ++i) {
    raw[i] = combined[i].value;
    toa_acc += combined[i].toa_slope_s;
    snr_acc += combined[i].snr_db;
  }

  PreparedSweep prep;
  prep.toa_s = toa_acc / static_cast<double>(combined.size());
  prep.field_snr_db = snr_acc / static_cast<double>(combined.size());
  // Weighted data term: rows scaled identically to the solver's F matrix.
  prep.h = solver_.apply_weights(raw);
  return prep;
}

RangingResult RangingPipeline::estimate(
    const phy::SweepMeasurement& sweep,
    const CalibrationTable& calibration) const {
  // Detection gate before the solve: screen the sweep before any math
  // touches it, then check direction symmetry on combine's slopes. A
  // rejection is a typed per-request status carrying nothing else, never a
  // throw — one hostile sweep in a batch must not abort its neighbours.
  chronos::Status gate = screen_sweep(sweep, bands_, config_.integrity);
  std::vector<CombinedBand> combined;
  if (gate.ok()) {
    combined = combine_sweep(sweep, config_.combining, calibration);
    if (config_.integrity.all_checks) {
      gate = check_slope_symmetry(sweep, combined);
    }
  }
  if (!gate.ok()) {
    RangingResult out;
    out.status = std::move(gate);
    return out;
  }
  PreparedSweep prep = prepare(combined);
  SparseSolveResult solution =
      solver_.solve_fista(prep.h, RangingConfig::solver_options);
  return finish(prep, std::move(solution), calibration);
}

std::vector<RangingResult> RangingPipeline::estimate_batch(
    std::span<const phy::SweepMeasurement> sweeps,
    const CalibrationTable& calibration) const {
  std::vector<RangingResult> out;
  out.reserve(sweeps.size());
  for (const auto& sweep : sweeps) out.push_back(estimate(sweep, calibration));
  return out;
}

RangingResult RangingPipeline::finish(const PreparedSweep& prep,
                                      SparseSolveResult solution,
                                      const CalibrationTable& calibration) const {
  const auto& h = prep.h;
  const double field_snr_db = prep.field_snr_db;

  RangingResult out;
  out.profile = extract_profile(solution);
  out.delay_axis_scale = delay_axis_scale(config_.combining);
  out.solver_iterations = solution.iterations;
  out.toa_s = prep.toa_s;

  // ---- Direct-path selection ------------------------------------------
  // The candidates come from one of two sources:
  // * ToA gate on (use_toa_gate and a calibration with has_toa_bias, the
  //   default): the local maxima of one matched-filter scan across the
  //   +-kToaGateS window around the coarse ToF, merged within 0.7 ns. The
  //   sparse profile is not read.
  // * Gate off (the paper's first-peak rule): sparse-profile clusters
  //   above kFirstPeakThreshold of the strongest, each re-located and
  //   scored at its local MF maximum within +-1.5 ns of the centroid
  //   (clusters can be smeared by unresolved clutter; the MF peak is the
  //   better anchor). Grating-ghost test: the 20 MHz channel lattice echoes
  //   every real path at +-k*50 ns with ~0.6 relative coherence, so a
  //   candidate whose lattice-shifted probe scores *higher* is a ghost of
  //   a later/earlier real path.
  // Either way, the earliest non-ghost whose score reaches
  // kFirstPeakMfRatio of the best non-ghost score is the direct path.
  double max_amp = 0.0;
  for (const auto& p : out.profile.peaks) max_amp = std::max(max_amp, p.amplitude);

  const double grid_min_u = RangingConfig::grid.min_s;
  const double grid_max_u = RangingConfig::grid.max_s;

  // Local MF maximum (value and location) within +-half of `center`. One
  // recurrence scan replaces per-sample std::polar evaluation; out-of-grid
  // samples are computed but skipped, matching the legacy clamp.
  auto local_mf_peak = [&](double center, double half) {
    constexpr int kProbePoints = 61;
    const double step = 2.0 * half / static_cast<double>(kProbePoints - 1);
    double scan[kProbePoints];
    solver_.matched_filter_scan(h, center - half, step, kProbePoints, scan);
    double best_val = -1.0;
    double best_u = center;
    for (int s = 0; s < kProbePoints; ++s) {
      const double u = center - half +
                       2.0 * half * static_cast<double>(s) /
                           static_cast<double>(kProbePoints - 1);
      if (u < grid_min_u || u > grid_max_u) continue;
      if (scan[s] > best_val) {
        best_val = scan[s];
        best_u = u;
      }
    }
    return std::pair<double, double>{best_val, best_u};
  };

  struct Candidate {
    const ProfilePeak* peak;
    double score = 0.0;  ///< local MF maximum near the cluster
    double u = 0.0;      ///< location of that maximum
    bool ghost = false;
  };
  constexpr double kLocalWindow = 1.5e-9;

  // Coarse ToA gate: the calibrated detection-delay bias turns the mean
  // subcarrier-slope ToA into a few-ns-accurate ToF estimate, which prunes
  // lattice ghosts (+-50 ns away) before any scoring. The gate center is
  // compensated for the SNR-dependent part of the mean detection delay
  // (the calibration fixture is much closer — hence higher SNR — than a
  // field link).
  const bool gate_on = config_.use_toa_gate && calibration.has_toa_bias;
  double gate_center_u = 0.0;
  if (gate_on) {
    const double snr_compensation =
        phy::expected_detection_delay_s(field_snr_db) -
        phy::expected_detection_delay_s(calibration.calibration_snr_db);
    const double coarse_tof =
        out.toa_s - calibration.toa_bias_s - snr_compensation;
    gate_center_u = coarse_tof * out.delay_axis_scale;
  }
  const double gate_half_u = kToaGateS * out.delay_axis_scale;

  std::vector<Candidate> candidates;
  if (gate_on) {
    // Gated path: scan the matched filter across the gate window directly.
    // Local maxima within merge_radius of each other collapse into the
    // strongest (absorbing the mainlobe's immediate sidelobes), then the
    // earliest survivor above the score ratio is the direct path.
    const double lo = std::max(grid_min_u, gate_center_u - gate_half_u);
    const double hi = std::min(grid_max_u, gate_center_u + gate_half_u);
    constexpr double kScanStep = 0.04e-9;
    constexpr double kMergeRadius = 0.7e-9;
    // One batched recurrence scan of the whole gate window (the hottest
    // matched-filter loop in the pipeline), then local-maxima detection on
    // the sampled values — same shape test as the legacy streaming scan.
    std::vector<std::pair<double, double>> maxima;  // (u, score)
    if (hi >= lo) {
      const std::size_t count =
          static_cast<std::size_t>((hi - lo) / kScanStep + 1e-9) + 1;
      std::vector<double> scan(count);
      solver_.matched_filter_scan(h, lo, kScanStep, count, scan);
      for (std::size_t k = 2; k < count; ++k) {
        if (scan[k - 1] >= scan[k - 2] && scan[k - 1] > scan[k]) {
          maxima.emplace_back(lo + kScanStep * static_cast<double>(k - 1),
                              scan[k - 1]);
        }
      }
    }
    // Merge nearby maxima, keeping the strongest representative.
    std::vector<std::pair<double, double>> merged;
    for (const auto& m : maxima) {
      if (!merged.empty() &&
          std::abs(m.first - merged.back().first) < kMergeRadius) {
        if (m.second > merged.back().second) merged.back() = m;
      } else {
        merged.push_back(m);
      }
    }
    for (const auto& m : merged) {
      candidates.push_back({nullptr, m.second, m.first, false});
    }
  } else {
    for (const auto& p : out.profile.peaks) {
      if (p.amplitude < kFirstPeakThreshold * max_amp) continue;
      const auto [score, u] = local_mf_peak(p.delay_s, kLocalWindow);
      candidates.push_back({&p, score, u, false});
    }
  }

  // Ghost probing is only needed when no ToA gate constrains the window:
  // the gate is far narrower than the 50 ns lattice period.
  if (!gate_on) {
    for (auto& c : candidates) {
      for (int k = 1; k <= 2 && !c.ghost; ++k) {
        for (const double sign : {-1.0, 1.0}) {
          const double probe =
              c.u + sign * static_cast<double>(k) * kAliasPeriodS;
          if (probe < grid_min_u || probe > grid_max_u) continue;
          if (local_mf_peak(probe, kLocalWindow).first > c.score) {
            c.ghost = true;
            break;
          }
        }
      }
    }
  }

  const Candidate* direct = nullptr;
  double best_score = 0.0;
  for (const auto& c : candidates) {
    if (!c.ghost) best_score = std::max(best_score, c.score);
  }
  for (const auto& c : candidates) {
    if (c.ghost) continue;
    if (c.score >= kFirstPeakMfRatio * best_score) {
      direct = &c;
      break;  // candidates iterate in delay order
    }
  }

  for (const auto& c : candidates) {
    out.candidates.push_back({c.u,
                              c.peak != nullptr ? c.peak->amplitude : c.score,
                              c.score, &c == direct});
  }

  if (direct != nullptr) {
    out.peak_found = true;
    const double u = solver_.refine_delay(h, direct->u, kRefineHalfWidthS);
    out.tof_s = u / out.delay_axis_scale;
    out.distance_m = mathx::tof_to_distance(out.tof_s);
    out.detection_delay_s = out.toa_s - out.tof_s;
  }

  // ---- Detection gate, tier 2: post-estimate sanity -------------------
  // These need the peak decision and the calibration table, so they cannot
  // live in the pre-solve screen. The diagnostics (profile, candidates) are
  // kept on a rejection so callers can audit what the gate saw.
  if (!config_.integrity.all_checks) return out;
  if (!out.peak_found) {
    out.status = {chronos::StatusCode::kIntegrityViolation,
                  "no acceptable direct-path peak: the delay profile and "
                  "the coarse ToA disagree (spoofed delay or corrupted "
                  "sweep)"};
    return out;
  }
  if (calibration.has_toa_bias) {
    const double expected_delay =
        calibration.toa_bias_s +
        phy::expected_detection_delay_s(field_snr_db) -
        phy::expected_detection_delay_s(calibration.calibration_snr_db);
    const double discrepancy = out.detection_delay_s - expected_delay;
    if (std::abs(discrepancy) > kMaxToaDiscrepancyS) {
      out.status = {chronos::StatusCode::kIntegrityViolation,
                    "ToA/ToF inconsistency: detection delay deviates " +
                        std::to_string(discrepancy * 1e9) +
                        " ns from the calibrated expectation (delay-offset "
                        "spoofing)"};
      return out;
    }
  }
  return out;
}

}  // namespace chronos::core
