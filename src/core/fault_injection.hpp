// Deterministic fault injection over any SweepSource backend.
//
// `FaultInjectingSweepSource` decorates a backend with the hostile
// behaviours the ROADMAP's adversarial tier names: transient outages,
// truncated exchanges, replayed (stale-cached) sweeps, spoofed delay
// offsets, band-plan liars, and interference that collapses the SNR. Each
// request independently draws ONE fault (or none) with the per-fault
// probabilities of its `FaultProfile`.
//
// Determinism contract — the decorator must not weaken the batched
// runtime's guarantee that ticket i is a pure function of its split
// stream:
//   * every fault decision and every corruption draw comes from
//     `rng.split(kFaultStreamTag)` — a position-independent child of the
//     per-request stream the runtime already hands sweep_for. Worker
//     scheduling cannot change which request is faulted or how.
//   * when the draw selects NO fault, the caller's rng is passed through
//     UNTOUCHED (split never advances its parent), so a zero profile is
//     bit-identical to the undecorated backend — the goldens pin this.
//   * `planned_fault` recomputes the decision from a copy of the request
//     stream, giving benches and tests per-ticket ground truth without
//     consuming anything.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep_source.hpp"
#include "mathx/rng.hpp"
#include "mathx/status.hpp"
#include "mathx/stream_tags.hpp"
#include "phy/csi.hpp"

namespace chronos::core {

/// The fault classes the injector can apply to one request. At most one
/// fault fires per request (the profile's probabilities partition [0, 1)).
enum class FaultKind {
  kNone = 0,
  kOutage,        ///< transient kUnavailable from the backend
  kTruncated,     ///< suffix bands dropped mid-sweep
  kReplayed,      ///< stale-cached sweep: old draws, aged timestamps
  kSpoofedDelay,  ///< forward-only extra delay (phase-slope spoof)
  kBandLiar,      ///< some bands lie about their channel identity
  kSnrCollapse,   ///< interference: heavy noise + collapsed SNR tags
};

/// Stable identifier for a fault kind ("kBandLiar", ...), for logs and
/// bench tables.
const char* to_string(FaultKind kind);

/// Per-request fault probabilities plus the shape of the two faults a
/// bench varies. The probabilities must each be >= 0 and sum to <= 1; the
/// remainder is the clean-path probability. The other fault shapes are
/// fixed (core/fault_injection.cpp): a replay ages every timestamp by
/// 300 s, a spoof adds 80 ns (about 12 m) of forward-path delay, and an SNR
/// collapse adds complex noise at 6x each capture's RMS magnitude and tags
/// every capture -5 dB.
struct FaultProfile {
  double p_outage = 0.0;
  double p_truncate = 0.0;
  double p_replay = 0.0;
  double p_spoof = 0.0;
  double p_band_lie = 0.0;
  double p_snr_collapse = 0.0;

  /// kTruncated: fraction of trailing bands dropped (at least one band
  /// always survives — an empty sweep is a parser concern, not a ranging
  /// one).
  double truncate_fraction = 0.4;
  /// kBandLiar: number of bands whose identity is overwritten with
  /// another band of the same sweep.
  std::size_t band_lies = 3;

  /// Sum of the six fault probabilities (the per-request fault rate).
  double total_probability() const;
  bool zero() const { return total_probability() <= 0.0; }

  /// The default hostile profile the adversarial bench and its CI gate
  /// run: every fault class at `rate_per_fault` (default 10% each, 60%
  /// total fault rate).
  static FaultProfile hostile(double rate_per_fault = 0.1);
};

/// split() tag of the per-request fault stream ("fault" in ASCII). Defined
/// in the mathx/stream_tags.hpp registry; this is the layer-local alias.
inline constexpr std::uint64_t kFaultStreamTag = chronos::kFaultStreamTag;

/// One uniform draw from `fault_stream` mapped onto the profile's
/// cumulative probabilities. Exposed (with apply_fault) so ground-truth
/// bookkeeping and corpus generation share the injector's exact logic.
FaultKind draw_fault(const FaultProfile& profile, mathx::Rng& fault_stream);

/// Applies `kind`'s corruption to `sweep`, drawing any shape randomness
/// (lied band choice, injected noise) from `fault_stream` — the same
/// stream state sweep_for uses after its own draw_fault call.
/// kNone and kOutage return the sweep unchanged.
phy::SweepMeasurement apply_fault(FaultKind kind, phy::SweepMeasurement sweep,
                                  const FaultProfile& profile,
                                  mathx::Rng& fault_stream);

/// The decorator. Wrap any backend, hand the wrapper to the engine /
/// batched runtime, and per-request faults appear exactly as hostile
/// field conditions would: inside the Result / RangingResult statuses.
class FaultInjectingSweepSource final : public SweepSource {
 public:
  FaultInjectingSweepSource(std::shared_ptr<const SweepSource> inner,
                            FaultProfile profile);

  // NodeRegistry (forwarded to the wrapped backend)
  bool has_node(chronos::NodeId id) const override;
  [[nodiscard]] chronos::Result<std::size_t> antenna_count(chronos::NodeId id)
      const override;
  std::vector<chronos::NodeId> nodes() const override;

  // SweepSource
  [[nodiscard]] chronos::Result<ResolvedRequest> resolve(
      const chronos::RangingRequest& request) const override;
  [[nodiscard]] chronos::Result<phy::SweepMeasurement> sweep_for(
      const ResolvedRequest& req, mathx::Rng& rng) const override;
  const std::vector<phy::WifiBand>& bands() const override;
  bool has_geometry() const override;
  std::string backend_name() const override;
  sim::LinkSimConfig calibration_model() const override;

  /// The fault sweep_for will inject for a request served on
  /// `request_stream` (the per-ticket stream the runtime hands sweep_for,
  /// i.e. base.split(ticket)). Pure — consumes nothing — so benches can
  /// reconstruct per-ticket ground truth.
  FaultKind planned_fault(const mathx::Rng& request_stream) const;

  const FaultProfile& profile() const { return profile_; }
  const SweepSource& inner() const { return *inner_; }

 private:
  std::shared_ptr<const SweepSource> inner_;
  FaultProfile profile_;
};

}  // namespace chronos::core
