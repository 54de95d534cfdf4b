#include "sim/link.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <span>
#include <vector>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"
#include "phy/detection.hpp"

namespace chronos::sim {

namespace {
/// Dwell time on each band before hopping.
constexpr double kDwellTimeS = 2.4e-3;
/// Packet-to-ACK turnaround (mean and jitter): the residual-CFO phase error
/// of the two-way product grows with this gap (§7 observation 1).
constexpr double kAckTurnaroundS = 28e-6;
constexpr double kAckTurnaroundJitterS = 4e-6;
/// Spacing between successive exchanges on the same band.
constexpr double kExchangePeriodS = 700e-6;
}  // namespace

LinkSimulator::LinkSimulator(Environment env, LinkSimConfig config)
    : env_(std::move(env)), config_(std::move(config)) {
  bands_ = config_.bands.empty() ? phy::us_band_plan() : config_.bands;
  CHRONOS_EXPECTS(config_.exchanges_per_band >= 1,
                  "need at least one exchange per band");
}

std::vector<PathComponent> LinkSimulator::paths_between(
    const Device& tx, std::size_t tx_antenna, const Device& rx,
    std::size_t rx_antenna) const {
  CHRONOS_EXPECTS(tx_antenna < tx.antennas.size(), "tx antenna out of range");
  CHRONOS_EXPECTS(rx_antenna < rx.antennas.size(), "rx antenna out of range");
  return compute_paths(env_, tx.antennas[tx_antenna], rx.antennas[rx_antenna],
                       config_.propagation);
}

namespace {

/// Index of `band` within the full US plan (for per-band chain ripple).
std::size_t plan_index(const phy::WifiBand& band) {
  const auto& plan = phy::us_band_plan();
  const auto it = std::find(plan.begin(), plan.end(), band);
  return it == plan.end() ? 0 : static_cast<std::size_t>(it - plan.begin());
}

/// Writes e^{-j 2 pi o_k delay_s} for every reported subcarrier k into
/// `out`. The offsets are o_k = n_k * spacing for the integer subcarrier
/// indices n_k, so the rotation is w^{n_k} with w = e^{-j 2 pi spacing
/// delay_s}: one sincos and the powers w^0..w^max in `powers` (sized
/// max |n_k| + 1), conjugated for negative n_k since |w| = 1.
void offset_rotations(double delay_s, std::span<const int> indices,
                      std::span<std::complex<double>> powers,
                      std::span<std::complex<double>> out) {
  const std::complex<double> w =
      std::polar(1.0, -mathx::kTwoPi * phy::subcarrier_offset_hz(1) * delay_s);
  powers[0] = {1.0, 0.0};
  for (std::size_t n = 1; n < powers.size(); ++n) powers[n] = powers[n - 1] * w;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const int n = indices[k];
    out[k] = n < 0 ? std::conj(powers[static_cast<std::size_t>(-n)])
                   : powers[static_cast<std::size_t>(n)];
  }
}

}  // namespace

phy::SweepMeasurement LinkSimulator::simulate_sweep(
    const Device& tx, std::size_t tx_antenna, const Device& rx,
    std::size_t rx_antenna, mathx::Rng& rng) const {
  const auto paths = paths_between(tx, tx_antenna, rx, rx_antenna);
  const double chan_power = total_power(paths);
  const double snr_db = packet_snr_db(chan_power);
  const double snr_linear = std::pow(10.0, snr_db / 10.0);

  // Per-subcarrier noise from the RMS channel magnitude. `chan_power` sums
  // every path's power, which is wideband: the same sigma on every band.
  const double rms_mag = std::sqrt(chan_power);
  const double noise_sigma =
      config_.enable_noise ? rms_mag / std::sqrt(2.0 * snr_linear) : 0.0;

  const auto sc_indices = phy::intel5300_subcarrier_indices();
  constexpr std::size_t kSubcarriers = phy::kIntel5300Subcarriers;
  std::size_t max_index = 0;
  for (const int n : sc_indices) {
    max_index = std::max(max_index, static_cast<std::size_t>(std::abs(n)));
  }

  // The chains delay the signal exactly like extra flight time; each
  // direction traverses one TX and one RX chain.
  const double hw_delay = config_.enable_chain_effects
                              ? kHardwareDelayS + kHardwareDelayS
                              : 0.0;

  // h(f_c + o_k) = sum_p (a_p e^{-j 2 pi f_c tau_p}) e^{-j 2 pi o_k tau_p}
  // (Eqn 1). Every band reports the same 30 offsets o_k, so the offset
  // factors are tabulated once per sweep (row k, one column per path) and a
  // band costs one sincos per path. Each value is a direct dot product, not
  // a recurrence: no rounding error grows with the subcarrier index. The
  // chains' group delay factors the same way.
  const std::size_t n_paths = paths.size();
  std::vector<std::complex<double>> path_offset_rot(kSubcarriers * n_paths);
  std::array<std::complex<double>, kSubcarriers> hw_offset_rot{};
  for (std::size_t k = 0; k < kSubcarriers; ++k) {
    const double f_off = phy::subcarrier_offset_hz(sc_indices[k]);
    for (std::size_t p = 0; p < n_paths; ++p) {
      path_offset_rot[k * n_paths + p] =
          std::polar(1.0, -mathx::kTwoPi * f_off * paths[p].delay_s);
    }
    hw_offset_rot[k] = std::polar(1.0, -mathx::kTwoPi * f_off * hw_delay);
  }
  std::vector<std::complex<double>> band_gain(n_paths);

  // The current band's channel per subcarrier, forward and reverse, before
  // the per-exchange impairments: it is the same for every exchange.
  std::array<std::complex<double>, kSubcarriers> base_fwd{};
  std::array<std::complex<double>, kSubcarriers> base_rev{};
  // Each exchange's detection-delay rotation per subcarrier, per direction.
  std::vector<std::complex<double>> powers(max_index + 1);
  std::array<std::complex<double>, kSubcarriers> delay_rot_fwd{};
  std::array<std::complex<double>, kSubcarriers> delay_rot_rev{};
  // One exchange's noise draws, both directions.
  std::array<std::complex<double>, 2 * kSubcarriers> noise{};

  phy::SweepMeasurement sweep;
  sweep.bands.resize(bands_.size());
  sweep.sweep_duration_s = kDwellTimeS * static_cast<double>(bands_.size());

  for (std::size_t bi = 0; bi < bands_.size(); ++bi) {
    const phy::WifiBand& band = bands_[bi];
    const double band_start = kDwellTimeS * static_cast<double>(bi);

    // Residual CFO for this dwell: the NIC re-estimates CFO per hop, so the
    // residual is redrawn on every band (and drifts slightly per packet).
    const double residual_cfo_hz =
        config_.enable_cfo
            ? rng.normal(0.0, std::hypot(kResidualCfoStdHz, kResidualCfoStdHz))
            : 0.0;

    // Per-hop synthesizer phase difference between the two devices. It is
    // the *same* unknown for the packet and its ACK (both LOs keep running
    // within the dwell), which is exactly why the two-way product kills it.
    const double lo_phase =
        config_.enable_lo_phase ? rng.uniform_phase() : 0.0;

    // Reciprocity constant kappa for this band: hardware group delays of
    // both chains plus each device's fixed per-band ripple. Applied to the
    // reverse measurement only (paper Eqn 12).
    std::complex<double> kappa{1.0, 0.0};
    if (config_.enable_chain_effects) {
      const std::size_t pi = plan_index(band);
      kappa = std::polar(1.0, tx.chain_ripple_rad(pi) + rx.chain_ripple_rad(pi));
    }

    // True over-the-air channel including the hardware group delay.
    // Reverse: same air channel (reciprocity) times kappa. Neither changes
    // between exchanges.
    const double f_c = band.center_freq_hz;
    for (std::size_t p = 0; p < n_paths; ++p) {
      band_gain[p] =
          paths[p].gain * std::polar(1.0, -mathx::kTwoPi * f_c * paths[p].delay_s);
    }
    const std::complex<double> hw_band_rot =
        std::polar(1.0, -mathx::kTwoPi * f_c * hw_delay);
    for (std::size_t k = 0; k < kSubcarriers; ++k) {
      const std::complex<double>* rot = &path_offset_rot[k * n_paths];
      std::complex<double> h_air{0.0, 0.0};
      for (std::size_t p = 0; p < n_paths; ++p) h_air += band_gain[p] * rot[p];
      base_fwd[k] = h_air * (hw_band_rot * hw_offset_rot[k]);
      base_rev[k] = base_fwd[k] * kappa;
    }

    auto& captures = sweep.bands[bi];
    captures.reserve(static_cast<std::size_t>(config_.exchanges_per_band));

    for (int e = 0; e < config_.exchanges_per_band; ++e) {
      const double t_pkt =
          band_start + kExchangePeriodS * static_cast<double>(e);
      const double t_ack =
          t_pkt + kAckTurnaroundS + rng.normal(0.0, kAckTurnaroundJitterS);

      const double delta_fwd =
          config_.enable_detection_delay
              ? phy::sample_detection_delay_s(snr_db, rng)
              : 0.0;
      const double delta_rev =
          config_.enable_detection_delay
              ? phy::sample_detection_delay_s(snr_db, rng)
              : 0.0;

      // The 2.4 GHz firmware quirk leaves the band-wide phase known only
      // modulo pi/2: model as an independent quadrant rotation per packet.
      const double quirk_fwd =
          (config_.enable_quirk && band.is_2_4ghz())
              ? (mathx::kPi / 2.0) * static_cast<double>(rng.uniform_int(0, 3))
              : 0.0;
      const double quirk_rev =
          (config_.enable_quirk && band.is_2_4ghz())
              ? (mathx::kPi / 2.0) * static_cast<double>(rng.uniform_int(0, 3))
              : 0.0;

      // CFO/LO/quirk rotation, the same on every subcarrier. Forward: +CFO
      // phase, +LO phase, +quirk. Reverse: negated CFO/LO phase, own quirk.
      const std::complex<double> fwd_rot = std::polar(
          1.0, mathx::kTwoPi * residual_cfo_hz * t_pkt + lo_phase + quirk_fwd);
      const std::complex<double> rev_rot = std::polar(
          1.0,
          -(mathx::kTwoPi * residual_cfo_hz * t_ack + lo_phase) + quirk_rev);

      // Each direction's own detection delay rotates every subcarrier by
      // its offset.
      offset_rotations(delta_fwd, sc_indices, powers, delay_rot_fwd);
      offset_rotations(delta_rev, sc_indices, powers, delay_rot_rev);

      phy::CsiMeasurement fwd;
      fwd.band = band;
      fwd.timestamp_s = t_pkt;
      fwd.snr_db = snr_db;

      phy::CsiMeasurement rev;
      rev.band = band;
      rev.timestamp_s = t_ack;
      rev.snr_db = snr_db;

      // Noise is drawn forward, then reverse, per subcarrier: noise[2k] is
      // subcarrier k's forward draw and noise[2k + 1] its reverse one.
      if (config_.enable_noise) rng.complex_gaussians(noise_sigma, noise);
      for (std::size_t k = 0; k < kSubcarriers; ++k) {
        std::complex<double> h_fwd = base_fwd[k];
        h_fwd *= delay_rot_fwd[k];
        h_fwd *= fwd_rot;
        if (config_.enable_noise) h_fwd += noise[2 * k];
        fwd.values[k] = h_fwd;

        std::complex<double> h_rev = base_rev[k];
        h_rev *= delay_rot_rev[k];
        h_rev *= rev_rot;
        if (config_.enable_noise) h_rev += noise[2 * k + 1];
        rev.values[k] = h_rev;
      }

      captures.push_back({fwd, rev});
    }
  }
  return sweep;
}

}  // namespace chronos::sim
