#include "core/fault_injection.hpp"

#include <cmath>
#include <complex>
#include <utility>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"

namespace chronos::core {

namespace {

/// split() tag of the stale stream a replayed sweep is drawn from
/// ("stale" in ASCII): the deterministic stand-in for "an old capture of
/// this link served from a cache". Defined in the mathx/stream_tags.hpp
/// registry (it splits the FAULT stream, not the ticket stream — see the
/// provenance note there); this is the file-local alias.
constexpr std::uint64_t kStaleStreamTag = chronos::kStaleStreamTag;

/// kReplayed: how far into the past the replayed capture's timestamps are
/// shifted. Far beyond any honest sweep duration.
constexpr double kReplayAgeS = 300.0;

/// kSpoofedDelay: extra one-way delay folded into every forward capture's
/// subcarrier phases (an attacker inflating the apparent range). 80 ns is
/// about 12 m of spoofed one-way distance.
constexpr double kSpoofDelayS = 80e-9;

/// kSnrCollapse: SNR tag written on every capture, and the noise amplitude
/// injected relative to each capture's RMS magnitude.
constexpr double kSnrCollapseDb = -5.0;
constexpr double kCollapseNoiseScale = 6.0;

void collapse_measurement(phy::CsiMeasurement& m, mathx::Rng& fault_stream) {
  const double noise_std =
      kCollapseNoiseScale *
      std::sqrt(m.energy() / static_cast<double>(m.values.size()));
  for (auto& v : m.values) {
    v += fault_stream.complex_gaussian(noise_std);
  }
  m.snr_db = kSnrCollapseDb;
}

void spoof_measurement(phy::CsiMeasurement& m) {
  // An extra propagation delay multiplies the channel by e^{-j 2π f Δ} at
  // each absolute subcarrier frequency — exactly what a repeater /
  // range-inflation attack imprints on the initiator's packet.
  for (std::size_t k = 0; k < m.values.size(); ++k) {
    const double phase = -2.0 * mathx::kPi * m.frequency_at(k) * kSpoofDelayS;
    m.values[k] *= std::polar(1.0, phase);
  }
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "kNone";
    case FaultKind::kOutage: return "kOutage";
    case FaultKind::kTruncated: return "kTruncated";
    case FaultKind::kReplayed: return "kReplayed";
    case FaultKind::kSpoofedDelay: return "kSpoofedDelay";
    case FaultKind::kBandLiar: return "kBandLiar";
    case FaultKind::kSnrCollapse: return "kSnrCollapse";
  }
  return "<invalid FaultKind>";
}

double FaultProfile::total_probability() const {
  return p_outage + p_truncate + p_replay + p_spoof + p_band_lie +
         p_snr_collapse;
}

FaultProfile FaultProfile::hostile(double rate_per_fault) {
  FaultProfile profile;
  profile.p_outage = rate_per_fault;
  profile.p_truncate = rate_per_fault;
  profile.p_replay = rate_per_fault;
  profile.p_spoof = rate_per_fault;
  profile.p_band_lie = rate_per_fault;
  profile.p_snr_collapse = rate_per_fault;
  return profile;
}

FaultKind draw_fault(const FaultProfile& profile, mathx::Rng& fault_stream) {
  // One uniform draw walks the cumulative probabilities, so the decision
  // costs the same stream advance for every outcome.
  const double u = fault_stream.uniform(0.0, 1.0);
  double edge = profile.p_outage;
  if (u < edge) return FaultKind::kOutage;
  edge += profile.p_truncate;
  if (u < edge) return FaultKind::kTruncated;
  edge += profile.p_replay;
  if (u < edge) return FaultKind::kReplayed;
  edge += profile.p_spoof;
  if (u < edge) return FaultKind::kSpoofedDelay;
  edge += profile.p_band_lie;
  if (u < edge) return FaultKind::kBandLiar;
  edge += profile.p_snr_collapse;
  if (u < edge) return FaultKind::kSnrCollapse;
  return FaultKind::kNone;
}

phy::SweepMeasurement apply_fault(FaultKind kind, phy::SweepMeasurement sweep,
                                  const FaultProfile& profile,
                                  mathx::Rng& fault_stream) {
  switch (kind) {
    case FaultKind::kNone:
    case FaultKind::kOutage:
      return sweep;

    case FaultKind::kTruncated: {
      // The exchange died mid-sweep: trailing bands never happened. At
      // least one band survives (a band-less stream is the trace parser's
      // problem, not the ranging gate's).
      const auto n = sweep.bands.size();
      const auto dropped = static_cast<std::size_t>(
          std::floor(profile.truncate_fraction * static_cast<double>(n)));
      const std::size_t keep = n > dropped ? n - dropped : 1;
      sweep.bands.resize(std::max<std::size_t>(1, keep));
      return sweep;
    }

    case FaultKind::kReplayed: {
      // The stale draws themselves happen in sweep_for (the replay has to
      // replace the whole measurement); here the cached capture's age is
      // imprinted on every timestamp.
      for (auto& captures : sweep.bands) {
        for (auto& cap : captures) {
          cap.forward.timestamp_s -= kReplayAgeS;
          cap.reverse.timestamp_s -= kReplayAgeS;
        }
      }
      return sweep;
    }

    case FaultKind::kSpoofedDelay: {
      // Forward-only: the attacker delays the initiator's packet. The
      // two-way combining then sees inconsistent ToA vs ToF shifts, which
      // is exactly what the consistency check exploits.
      for (auto& captures : sweep.bands) {
        for (auto& cap : captures) {
          spoof_measurement(cap.forward);
        }
      }
      return sweep;
    }

    case FaultKind::kBandLiar: {
      const auto n = sweep.bands.size();
      if (n < 2) return sweep;  // nothing to lie with
      for (std::size_t lie = 0; lie < profile.band_lies; ++lie) {
        const auto victim = static_cast<std::size_t>(
            fault_stream.uniform_int(0, static_cast<int>(n) - 1));
        const auto shift = static_cast<std::size_t>(
            fault_stream.uniform_int(1, static_cast<int>(n) - 1));
        const auto donor = (victim + shift) % n;
        if (sweep.bands[donor].empty() || sweep.bands[victim].empty()) {
          continue;
        }
        const phy::WifiBand lied = sweep.bands[donor].front().forward.band;
        for (auto& cap : sweep.bands[victim]) {
          cap.forward.band = lied;
          cap.reverse.band = lied;
        }
      }
      return sweep;
    }

    case FaultKind::kSnrCollapse: {
      for (auto& captures : sweep.bands) {
        for (auto& cap : captures) {
          collapse_measurement(cap.forward, fault_stream);
          collapse_measurement(cap.reverse, fault_stream);
        }
      }
      return sweep;
    }
  }
  return sweep;
}

FaultInjectingSweepSource::FaultInjectingSweepSource(
    std::shared_ptr<const SweepSource> inner, FaultProfile profile)
    : inner_(std::move(inner)), profile_(profile) {
  CHRONOS_EXPECTS(inner_ != nullptr,
                  "FaultInjectingSweepSource needs a backend to wrap");
  CHRONOS_EXPECTS(
      profile_.p_outage >= 0.0 && profile_.p_truncate >= 0.0 &&
          profile_.p_replay >= 0.0 && profile_.p_spoof >= 0.0 &&
          profile_.p_band_lie >= 0.0 && profile_.p_snr_collapse >= 0.0,
      "fault probabilities must be >= 0");
  CHRONOS_EXPECTS(profile_.total_probability() <= 1.0,
                  "fault probabilities must sum to <= 1");
}

bool FaultInjectingSweepSource::has_node(chronos::NodeId id) const {
  return inner_->has_node(id);
}

chronos::Result<std::size_t> FaultInjectingSweepSource::antenna_count(
    chronos::NodeId id) const {
  return inner_->antenna_count(id);
}

std::vector<chronos::NodeId> FaultInjectingSweepSource::nodes() const {
  return inner_->nodes();
}

chronos::Result<ResolvedRequest> FaultInjectingSweepSource::resolve(
    const chronos::RangingRequest& request) const {
  return inner_->resolve(request);
}

const std::vector<phy::WifiBand>& FaultInjectingSweepSource::bands() const {
  return inner_->bands();
}

bool FaultInjectingSweepSource::has_geometry() const {
  return inner_->has_geometry();
}

std::string FaultInjectingSweepSource::backend_name() const {
  return inner_->backend_name() + "+faults";
}

sim::LinkSimConfig FaultInjectingSweepSource::calibration_model() const {
  return inner_->calibration_model();
}

FaultKind FaultInjectingSweepSource::planned_fault(
    const mathx::Rng& request_stream) const {
  mathx::Rng fault_stream = request_stream.split(kFaultStreamTag);
  return draw_fault(profile_, fault_stream);
}

chronos::Result<phy::SweepMeasurement> FaultInjectingSweepSource::sweep_for(
    const ResolvedRequest& req, mathx::Rng& rng) const {
  // All fault randomness lives on a split child of the request stream:
  // position-independent, and never advancing `rng` itself.
  mathx::Rng fault_stream = rng.split(kFaultStreamTag);
  const FaultKind kind = draw_fault(profile_, fault_stream);

  if (kind == FaultKind::kNone) {
    // Clean path: `rng` reaches the backend with exactly the state the
    // undecorated source would see — bit-identical passthrough.
    return inner_->sweep_for(req, rng);
  }
  if (kind == FaultKind::kOutage) {
    return chronos::Status{chronos::StatusCode::kUnavailable,
                           "injected transient outage on backend '" +
                               inner_->backend_name() + "'"};
  }
  if (kind == FaultKind::kReplayed) {
    // A stale cache serves the sweep an OLD rng state would have
    // produced; the per-link stale stream makes that scheduling-free.
    mathx::Rng stale = fault_stream.split(kStaleStreamTag);
    auto sweep = inner_->sweep_for(req, stale);
    if (!sweep.ok()) return sweep;
    return apply_fault(kind, std::move(sweep).value(), profile_,
                       fault_stream);
  }
  auto sweep = inner_->sweep_for(req, rng);
  if (!sweep.ok()) return sweep;
  return apply_fault(kind, std::move(sweep).value(), profile_, fault_stream);
}

}  // namespace chronos::core
